#include "operators/compiled_aggregate.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "common/macros.h"
#include "operators/aggregator.h"
#include "ra/expr_compile.h"

namespace dfdb {

namespace {

using Kind = AggregateSpec::Func;
using expr_detail::Cmp3S;
using expr_detail::LoadF64;
using expr_detail::LoadI32;
using expr_detail::LoadI64;
using expr_detail::TrimmedLen;

constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

/// One round of the key hash. The table indexes by the product's top bits
/// (Fibonacci hashing), which depend on every bit of the word.
inline uint64_t MixWord(uint64_t h, uint64_t w) { return (h ^ w) * kGolden; }

/// Hashes \p width key bytes as 8-byte little-endian words, the tail
/// zero-extended. The 4-byte instance computes exactly what kWidth 0
/// computes for the same bytes, so Rehash() can use the generic one.
template <int kWidth>
inline uint64_t HashKey(const char* p, int width) {
  if constexpr (kWidth == 4) {
    uint32_t w;
    std::memcpy(&w, p, 4);
    return MixWord(0, w);
  } else {
    uint64_t h = 0;
    int i = 0;
    for (; i + 8 <= width; i += 8) {
      uint64_t w;
      std::memcpy(&w, p + i, 8);
      h = MixWord(h, w);
    }
    if (i < width) {
      uint64_t w = 0;
      std::memcpy(&w, p + i, static_cast<size_t>(width - i));
      h = MixWord(h, w);
    }
    return h;
  }
}

template <int kWidth>
inline bool KeyEq(const char* a, const char* b, int width) {
  if constexpr (kWidth == 4) {
    uint32_t x, y;
    std::memcpy(&x, a, 4);
    std::memcpy(&y, b, 4);
    return x == y;
  } else {
    return std::memcmp(a, b, static_cast<size_t>(width)) == 0;
  }
}

/// Integer MIN/MAX keep an int64_t in a group word.
inline void KeepMin(uint64_t* word, int64_t v) {
  if (v < static_cast<int64_t>(*word)) *word = static_cast<uint64_t>(v);
}
inline void KeepMax(uint64_t* word, int64_t v) {
  if (v > static_cast<int64_t>(*word)) *word = static_cast<uint64_t>(v);
}

}  // namespace

StatusOr<CompiledAggregate> CompiledAggregate::Compile(
    const Schema& input_schema, const Schema& output_schema,
    const std::vector<std::string>& group_by,
    const std::vector<AggregateSpec>& specs) {
  if (static_cast<size_t>(output_schema.num_columns()) !=
      group_by.size() + specs.size()) {
    return Status::InvalidArgument("output schema does not fit the aggregate");
  }
  CompiledAggregate p;
  p.tuple_width_ = input_schema.tuple_width();
  p.out_width_ = output_schema.tuple_width();
  bool contiguous = true;
  for (size_t i = 0; i < group_by.size(); ++i) {
    DFDB_ASSIGN_OR_RETURN(int idx, input_schema.ColumnIndex(group_by[i]));
    const Column& in = input_schema.column(idx);
    const Column& out = output_schema.column(static_cast<int>(i));
    // The output starts with the group columns' raw bytes.
    if (out.type != in.type || out.width != in.width ||
        output_schema.offset(static_cast<int>(i)) != p.key_width_) {
      return Status::InvalidArgument("group column " + group_by[i] +
                                     " changes layout in the output");
    }
    const KeyPart part{input_schema.offset(idx), in.width};
    if (!p.key_parts_.empty() &&
        part.offset != p.key_parts_.back().offset + p.key_parts_.back().width) {
      contiguous = false;
    }
    p.key_parts_.push_back(part);
    p.key_width_ += in.width;
  }
  if (contiguous) {
    p.contiguous_key_offset_ =
        p.key_parts_.empty() ? 0 : p.key_parts_[0].offset;
  }

  int words = 0;
  int sums = 0;
  int chars = 0;
  for (size_t s = 0; s < specs.size(); ++s) {
    const AggregateSpec& spec = specs[s];
    const int out_col = static_cast<int>(group_by.size() + s);
    const ColumnType out_type = output_schema.column(out_col).type;
    Step step;
    step.out_offset = output_schema.offset(out_col);
    ColumnType want = ColumnType::kInt64;
    if (spec.func != Kind::kCount) {
      DFDB_ASSIGN_OR_RETURN(int idx, input_schema.ColumnIndex(spec.column));
      const ColumnType type = input_schema.column(idx).type;
      const bool is_char = type == ColumnType::kChar;
      step.in_offset = input_schema.offset(idx);
      if (is_char && spec.func != Kind::kMin && spec.func != Kind::kMax) {
        return Status::InvalidArgument("SUM/AVG require a numeric column: " +
                                       spec.column);
      }
      using K = Step::Kind;
      // Picks the INT32, INT64, DOUBLE or CHAR flavour of a step.
      auto typed = [type](K i32, K i64, K f64, K chr = K::kCount) {
        return type == ColumnType::kInt32   ? i32
               : type == ColumnType::kInt64 ? i64
               : type == ColumnType::kChar  ? chr
                                            : f64;
      };
      switch (spec.func) {
        case Kind::kSum:
          step.kind = typed(K::kSumI32, K::kSumI64, K::kSumF64);
          want = type == ColumnType::kDouble ? ColumnType::kDouble
                                             : ColumnType::kInt64;
          break;
        case Kind::kAvg:
          step.kind = typed(K::kAvgI32, K::kAvgI64, K::kAvgF64);
          want = ColumnType::kDouble;
          break;
        case Kind::kMin:
          step.kind = typed(K::kMinI32, K::kMinI64, K::kMinF64, K::kMinChar);
          want = type;
          break;
        case Kind::kMax:
          step.kind = typed(K::kMaxI32, K::kMaxI64, K::kMaxF64, K::kMaxChar);
          want = type;
          break;
        case Kind::kCount:
          break;
      }
      const bool exact = step.kind == K::kSumF64 || step.kind == K::kAvgI32 ||
                         step.kind == K::kAvgI64 || step.kind == K::kAvgF64;
      if (is_char) {
        step.width = input_schema.column(idx).width;
        step.slot = chars;
        chars += step.width;
      } else {
        step.slot = exact ? sums++ : words++;
      }
    }
    if (out_type != want ||
        (want == ColumnType::kChar &&
         output_schema.column(out_col).width != step.width)) {
      return Status::InvalidArgument("aggregate " + spec.output_name +
                                     " has an unexpected output type");
    }
    p.steps_.push_back(step);
  }
  p.words_per_group_ = 1 + words;
  p.sums_per_group_ = sums;
  p.chars_per_group_ = chars;
  p.key_buf_.resize(static_cast<size_t>(p.key_width_));
  p.Rehash(16);
  return p;
}

void CompiledAggregate::Rehash(size_t slots) {
  slots_.assign(slots, 0);
  slot_shift_ = 64 - std::countr_zero(slots);
  const size_t mask = slots - 1;
  for (size_t g = 0; g < num_groups_; ++g) {
    const char* key = keys_.data() + g * static_cast<size_t>(key_width_);
    size_t s = SlotOf(HashKey<0>(key, key_width_));
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = static_cast<uint32_t>(g + 1);
  }
}

uint32_t CompiledAggregate::AddGroup(const char* key, const char* tuple,
                                     size_t slot) {
  const size_t g = num_groups_++;
  keys_.insert(keys_.end(), key, key + key_width_);
  words_.resize(words_.size() + static_cast<size_t>(words_per_group_), 0);
  sums_.resize(sums_.size() + static_cast<size_t>(sums_per_group_));
  chars_.resize(chars_.size() + static_cast<size_t>(chars_per_group_));
  // MIN and MAX start at the group's first value.
  uint64_t* w = words_.data() + g * static_cast<size_t>(words_per_group_) + 1;
  char* c = chars_.data() + g * static_cast<size_t>(chars_per_group_);
  for (const Step& step : steps_) {
    switch (step.kind) {
      case Step::Kind::kMinI32:
      case Step::Kind::kMaxI32:
        w[step.slot] = static_cast<uint64_t>(LoadI32(tuple, step.in_offset));
        break;
      case Step::Kind::kMinI64:
      case Step::Kind::kMaxI64:
      case Step::Kind::kMinF64:
      case Step::Kind::kMaxF64:
        std::memcpy(&w[step.slot], tuple + step.in_offset, 8);
        break;
      case Step::Kind::kMinChar:
      case Step::Kind::kMaxChar:
        std::memcpy(c + step.slot, tuple + step.in_offset,
                    static_cast<size_t>(step.width));
        break;
      default:
        break;
    }
  }
  slots_[slot] = static_cast<uint32_t>(g + 1);
  if (2 * num_groups_ > slots_.size()) Rehash(2 * slots_.size());
  return static_cast<uint32_t>(g);
}

const char* CompiledAggregate::KeyOf(const char* tuple) {
  if (contiguous_key_offset_ >= 0) return tuple + contiguous_key_offset_;
  char* dst = key_buf_.data();
  for (const KeyPart& part : key_parts_) {
    std::memcpy(dst, tuple + part.offset, static_cast<size_t>(part.width));
    dst += part.width;
  }
  return key_buf_.data();
}

template <int kWidth>
uint32_t CompiledAggregate::FindOrAdd(const char* key, const char* tuple) {
  const int width = kWidth != 0 ? kWidth : key_width_;
  const size_t mask = slots_.size() - 1;
  size_t s = SlotOf(HashKey<kWidth>(key, width));
  for (;;) {
    const uint32_t e = slots_[s];
    if (e == 0) return AddGroup(key, tuple, s);
    const char* stored = keys_.data() + (e - 1) * static_cast<size_t>(width);
    if (KeyEq<kWidth>(stored, key, width)) return e - 1;
    s = (s + 1) & mask;
  }
}

template <int kWidth>
void CompiledAggregate::AssignGroups(const char* base, int n) {
  for (int t = 0; t < n; ++t) {
    const char* tuple = base + static_cast<size_t>(t) * tuple_width_;
    const char* key = kWidth != 0 ? tuple + contiguous_key_offset_
                                  : KeyOf(tuple);
    group_ids_[static_cast<size_t>(t)] = FindOrAdd<kWidth>(key, tuple);
  }
}

Status CompiledAggregate::Consume(const Page& page) {
  const int n = page.num_tuples();
  if (n == 0) return Status::OK();
  const char* base = page.tuple(0).data();
  group_ids_.resize(static_cast<size_t>(n));
  if (key_width_ == 0) {  // One global group.
    if (num_groups_ == 0) AddGroup(base, base, 0);
    std::fill(group_ids_.begin(), group_ids_.end(), 0u);
  } else if (contiguous_key_offset_ >= 0 && key_width_ == 4) {
    AssignGroups<4>(base, n);
  } else {
    AssignGroups<0>(base, n);
  }

  // One pass per aggregate, the kind dispatch hoisted out of the loop.
  const uint32_t* gid = group_ids_.data();
  const size_t stride = static_cast<size_t>(tuple_width_);
  const size_t wpg = static_cast<size_t>(words_per_group_);
  const size_t spg = static_cast<size_t>(sums_per_group_);
  const size_t cpg = static_cast<size_t>(chars_per_group_);
  for (int t = 0; t < n; ++t) ++words_[gid[t] * wpg];
  for (const Step& step : steps_) {
    const size_t slot = static_cast<size_t>(step.slot);
    const int32_t off = step.in_offset;
    auto word = [&](int t) -> uint64_t& {
      return words_[gid[t] * wpg + 1 + slot];
    };
    auto sum = [&](int t) -> ExactSum& { return sums_[gid[t] * spg + slot]; };
    auto at = [&](int t) { return base + static_cast<size_t>(t) * stride; };
    switch (step.kind) {
      case Step::Kind::kCount:
        break;
      case Step::Kind::kSumI32:
        for (int t = 0; t < n; ++t) {
          word(t) += static_cast<uint64_t>(LoadI32(at(t), off));
        }
        break;
      case Step::Kind::kSumI64:
        for (int t = 0; t < n; ++t) {
          word(t) += static_cast<uint64_t>(LoadI64(at(t), off));
        }
        break;
      case Step::Kind::kSumF64:
      case Step::Kind::kAvgF64:
        for (int t = 0; t < n; ++t) sum(t).Add(LoadF64(at(t), off));
        break;
      case Step::Kind::kAvgI32:
        for (int t = 0; t < n; ++t) {
          sum(t).Add(static_cast<double>(LoadI32(at(t), off)));
        }
        break;
      case Step::Kind::kAvgI64:
        for (int t = 0; t < n; ++t) {
          sum(t).Add(static_cast<double>(LoadI64(at(t), off)));
        }
        break;
      case Step::Kind::kMinI32:
        for (int t = 0; t < n; ++t) KeepMin(&word(t), LoadI32(at(t), off));
        break;
      case Step::Kind::kMinI64:
        for (int t = 0; t < n; ++t) KeepMin(&word(t), LoadI64(at(t), off));
        break;
      case Step::Kind::kMaxI32:
        for (int t = 0; t < n; ++t) KeepMax(&word(t), LoadI32(at(t), off));
        break;
      case Step::Kind::kMaxI64:
        for (int t = 0; t < n; ++t) KeepMax(&word(t), LoadI64(at(t), off));
        break;
      case Step::Kind::kMinF64:
      case Step::Kind::kMaxF64: {
        const bool is_min = step.kind == Step::Kind::kMinF64;
        for (int t = 0; t < n; ++t) {
          // The Aggregator's rule: IEEE 754 totalOrder, so nothing ties.
          const double v = LoadF64(at(t), off);
          double cur;
          std::memcpy(&cur, &word(t), 8);
          const int64_t kv = DoubleTotalOrderKey(v);
          const int64_t kc = DoubleTotalOrderKey(cur);
          if (is_min ? kv < kc : kv > kc) std::memcpy(&word(t), &v, 8);
        }
        break;
      }
      case Step::Kind::kMinChar:
      case Step::Kind::kMaxChar: {
        // Value::Compare's order: the right-trimmed bytes, unsigned. Equal
        // trimmed strings have equal blank-padded bytes, so keeping either
        // emits the same bytes whatever the page order.
        const bool is_min = step.kind == Step::Kind::kMinChar;
        for (int t = 0; t < n; ++t) {
          const char* v = at(t) + off;
          char* cur = chars_.data() + gid[t] * cpg + slot;
          const int c = Cmp3S(v, TrimmedLen(v, step.width), cur,
                              TrimmedLen(cur, step.width));
          if (is_min ? c < 0 : c > 0) {
            std::memcpy(cur, v, static_cast<size_t>(step.width));
          }
        }
        break;
      }
    }
  }
  return Status::OK();
}

Status CompiledAggregate::Finish(PageSink* out) {
  // The Aggregator's std::map order: keys compared as unsigned bytes.
  std::vector<uint32_t> order(num_groups_);
  std::iota(order.begin(), order.end(), 0u);
  const size_t kw = static_cast<size_t>(key_width_);
  if (kw != 0) {
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return std::memcmp(keys_.data() + a * kw, keys_.data() + b * kw, kw) < 0;
    });
  }
  std::string row(static_cast<size_t>(out_width_), '\0');
  for (uint32_t g : order) {
    if (kw != 0) std::memcpy(row.data(), keys_.data() + g * kw, kw);
    const uint64_t* w =
        words_.data() + g * static_cast<size_t>(words_per_group_);
    const ExactSum* sum =
        sums_.data() + g * static_cast<size_t>(sums_per_group_);
    const char* chars =
        chars_.data() + g * static_cast<size_t>(chars_per_group_);
    const uint64_t count = w[0];
    for (const Step& step : steps_) {
      char* dst = row.data() + step.out_offset;
      switch (step.kind) {
        case Step::Kind::kCount:
          std::memcpy(dst, &count, 8);
          break;
        case Step::Kind::kSumF64: {
          const double d = sum[step.slot].Round();
          std::memcpy(dst, &d, 8);
          break;
        }
        case Step::Kind::kAvgI32:
        case Step::Kind::kAvgI64:
        case Step::Kind::kAvgF64: {
          const double d =
              sum[step.slot].Round() / static_cast<double>(count);
          std::memcpy(dst, &d, 8);
          break;
        }
        case Step::Kind::kMinI32:
        case Step::Kind::kMaxI32: {
          const int32_t x =
              static_cast<int32_t>(static_cast<int64_t>(w[1 + step.slot]));
          std::memcpy(dst, &x, 4);
          break;
        }
        case Step::Kind::kMinChar:
        case Step::Kind::kMaxChar:
          std::memcpy(dst, chars + step.slot, static_cast<size_t>(step.width));
          break;
        default:  // Sums over integers, MIN/MAX over INT64 and DOUBLE.
          std::memcpy(dst, &w[1 + step.slot], 8);
          break;
      }
    }
    DFDB_RETURN_IF_ERROR(out->Emit(Slice(row)));
  }
  num_groups_ = 0;
  keys_.clear();
  words_.clear();
  sums_.clear();
  chars_.clear();
  std::fill(slots_.begin(), slots_.end(), 0u);
  return Status::OK();
}

}  // namespace dfdb
