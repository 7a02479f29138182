#include "operators/aggregator.h"

#include "common/macros.h"

namespace dfdb {

namespace {

/// MIN/MAX order: Value::Compare, except that DOUBLEs compare by
/// DoubleTotalOrderKey so no two distinct values tie.
StatusOr<int> CompareMinMax(const Value& a, const Value& b) {
  if (a.type() == ColumnType::kDouble && b.type() == ColumnType::kDouble) {
    const int64_t x = DoubleTotalOrderKey(a.as_double());
    const int64_t y = DoubleTotalOrderKey(b.as_double());
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  return a.Compare(b);
}

}  // namespace

StatusOr<Aggregator> Aggregator::Create(const Schema& input_schema,
                                        const Schema& output_schema,
                                        const std::vector<std::string>& group_by,
                                        std::vector<AggregateSpec> specs) {
  std::vector<int> group_indices;
  group_indices.reserve(group_by.size());
  for (const std::string& name : group_by) {
    DFDB_ASSIGN_OR_RETURN(int idx, input_schema.ColumnIndex(name));
    group_indices.push_back(idx);
  }
  std::vector<int> agg_indices;
  agg_indices.reserve(specs.size());
  for (const AggregateSpec& spec : specs) {
    if (spec.func == AggregateSpec::Func::kCount) {
      agg_indices.push_back(-1);
    } else {
      DFDB_ASSIGN_OR_RETURN(int idx, input_schema.ColumnIndex(spec.column));
      agg_indices.push_back(idx);
    }
  }
  return Aggregator(input_schema, output_schema, std::move(group_indices),
                    std::move(specs), std::move(agg_indices));
}

Status Aggregator::Consume(const Page& page) {
  for (int t = 0; t < page.num_tuples(); ++t) {
    TupleView view(&input_schema_, page.tuple(t));
    // Group key: raw bytes of the group columns in order.
    std::string key;
    for (int gi : group_indices_) {
      const Slice raw = view.GetRaw(gi);
      key.append(raw.data(), raw.size());
    }
    auto [it, inserted] = groups_.try_emplace(std::move(key));
    GroupState& state = it->second;
    if (inserted) {
      state.group_values.reserve(group_indices_.size());
      for (int gi : group_indices_) {
        DFDB_ASSIGN_OR_RETURN(Value v, view.GetValue(gi));
        state.group_values.push_back(std::move(v));
      }
      state.aggs.resize(specs_.size());
    }
    for (size_t s = 0; s < specs_.size(); ++s) {
      AggState& agg = state.aggs[s];
      agg.count++;
      if (agg_indices_[s] < 0) continue;  // COUNT needs no value.
      DFDB_ASSIGN_OR_RETURN(Value v, view.GetValue(agg_indices_[s]));
      switch (specs_[s].func) {
        case AggregateSpec::Func::kCount:
          break;
        case AggregateSpec::Func::kSum:
        case AggregateSpec::Func::kAvg: {
          DFDB_ASSIGN_OR_RETURN(double d, v.AsNumeric());
          // Finish reads sum_int for SUM over integers and sum_exact for
          // SUM over DOUBLE and for AVG (the analyzer's output types).
          if (specs_[s].func == AggregateSpec::Func::kAvg ||
              v.type() == ColumnType::kDouble) {
            if (agg.sum_exact == nullptr) {
              agg.sum_exact = std::make_unique<ExactSum>();
            }
            agg.sum_exact->Add(d);
          } else if (v.type() == ColumnType::kInt32) {
            agg.sum_int += static_cast<uint64_t>(v.as_int32());
          } else if (v.type() == ColumnType::kInt64) {
            agg.sum_int += static_cast<uint64_t>(v.as_int64());
          }
          break;
        }
        case AggregateSpec::Func::kMin: {
          if (!agg.min.has_value()) {
            agg.min = v;
          } else {
            DFDB_ASSIGN_OR_RETURN(int c, CompareMinMax(v, *agg.min));
            if (c < 0) agg.min = v;
          }
          break;
        }
        case AggregateSpec::Func::kMax: {
          if (!agg.max.has_value()) {
            agg.max = v;
          } else {
            DFDB_ASSIGN_OR_RETURN(int c, CompareMinMax(v, *agg.max));
            if (c > 0) agg.max = v;
          }
          break;
        }
      }
    }
  }
  return Status::OK();
}

Status Aggregator::Finish(PageSink* out) {
  for (auto& [key, state] : groups_) {
    std::vector<Value> row = state.group_values;
    for (size_t s = 0; s < specs_.size(); ++s) {
      const AggState& agg = state.aggs[s];
      const int out_col = static_cast<int>(group_indices_.size() + s);
      const ColumnType out_type = output_schema_.column(out_col).type;
      switch (specs_[s].func) {
        case AggregateSpec::Func::kCount:
          row.push_back(Value::Int64(agg.count));
          break;
        case AggregateSpec::Func::kSum:
          if (out_type == ColumnType::kInt64) {
            row.push_back(Value::Int64(static_cast<int64_t>(agg.sum_int)));
          } else {
            row.push_back(Value::Double(agg.sum_exact->Round()));
          }
          break;
        case AggregateSpec::Func::kAvg:
          row.push_back(Value::Double(
              agg.count == 0
                  ? 0.0
                  : agg.sum_exact->Round() / static_cast<double>(agg.count)));
          break;
        case AggregateSpec::Func::kMin:
          if (!agg.min.has_value()) {
            return Status::Internal("MIN over empty group");
          }
          row.push_back(*agg.min);
          break;
        case AggregateSpec::Func::kMax:
          if (!agg.max.has_value()) {
            return Status::Internal("MAX over empty group");
          }
          row.push_back(*agg.max);
          break;
      }
    }
    DFDB_ASSIGN_OR_RETURN(std::string encoded, EncodeTuple(output_schema_, row));
    DFDB_RETURN_IF_ERROR(out->Emit(Slice(encoded)));
  }
  groups_.clear();
  return Status::OK();
}

}  // namespace dfdb
