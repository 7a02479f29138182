#include "operators/node_program.h"

#include <algorithm>
#include <string>

#include "storage/tuple.h"

namespace dfdb {

StatusOr<std::unique_ptr<NodeProgram>> NodeProgram::Build(
    const PlanNode& node, StorageEngine* storage, KernelStats* stats,
    int dedup_shards) {
  std::unique_ptr<NodeProgram> p(new NodeProgram(node, storage));
  // A refused compile (division, CHAR/numeric mixing, ...) is no error:
  // the program interprets the tree per tuple instead, preserving exact
  // runtime-error semantics.
  bool refused = false;
  switch (node.op) {
    case PlanOp::kRestrict:
    case PlanOp::kDelete: {
      auto compiled =
          CompiledPredicate::Compile(*node.predicate, p->InputSchema());
      refused = !compiled.ok();
      if (!refused) p->pred_.emplace(*std::move(compiled));
      break;
    }
    case PlanOp::kJoin: {
      auto compiled = CompiledJoinPredicate::Compile(
          *node.predicate, node.child(0).output_schema,
          node.child(1).output_schema);
      refused = !compiled.ok();
      if (!refused) p->join_.emplace(*std::move(compiled));
      break;
    }
    case PlanOp::kProject:
      for (const std::string& name : node.columns) {
        DFDB_ASSIGN_OR_RETURN(int idx, p->InputSchema().ColumnIndex(name));
        p->columns_.push_back(idx);
      }
      break;
    case PlanOp::kAggregate: {
      DFDB_ASSIGN_OR_RETURN(
          CompiledAggregate agg,
          CompiledAggregate::Compile(node.child(0).output_schema,
                                     node.output_schema, node.columns,
                                     node.aggregates));
      p->agg_.emplace(std::move(agg));
      break;
    }
    default:
      break;
  }
  if (refused) stats->compile_fallbacks.fetch_add(1, std::memory_order_relaxed);
  if (node.op == PlanOp::kAppend || node.op == PlanOp::kDelete) {
    DFDB_ASSIGN_OR_RETURN(p->file_, storage->GetHeapFile(node.relation));
  }
  int shards = 0;
  if (node.op == PlanOp::kProject && node.dedup) {
    shards = std::max(1, dedup_shards);
  } else if (node.op == PlanOp::kUnion && !node.bag_semantics) {
    shards = 1;
  }
  for (int i = 0; i < shards; ++i) {
    p->shards_.push_back(std::make_unique<Shard>());
  }
  return p;
}

Status NodeProgram::EmitIfFresh(Slice tuple, int partition, PageSink* sink) {
  const int n = static_cast<int>(shards_.size());
  const int shard = n == 1 ? 0 : DedupPartition(tuple, n);
  if (partition != kAllPartitions && shard != partition) return Status::OK();
  Shard& s = *shards_[static_cast<size_t>(shard)];
  bool fresh;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    fresh = s.seen.Insert(tuple);
  }
  return fresh ? sink->Emit(tuple) : Status::OK();
}

Status NodeProgram::Consume(int slot, const Page& page, PageSink* sink,
                            KernelStats* stats, int partition) {
  switch (node_.op) {
    case PlanOp::kRestrict:
      if (pred_.has_value()) return RestrictPage(*pred_, page, sink, stats);
      stats->interpreted_pages.fetch_add(1, std::memory_order_relaxed);
      return RestrictPage(InputSchema(), *node_.predicate, page, sink);
    case PlanOp::kProject: {
      if (!node_.dedup) {
        return ProjectPage(InputSchema(), columns_, page, sink);
      }
      std::string projected;  // One projection buffer serves the whole page.
      for (int i = 0; i < page.num_tuples(); ++i) {
        ProjectTupleInto(InputSchema(), page.tuple(i), columns_, &projected);
        DFDB_RETURN_IF_ERROR(EmitIfFresh(Slice(projected), partition, sink));
      }
      return Status::OK();
    }
    case PlanOp::kUnion:
      if (node_.bag_semantics) return CopyPage(page, sink);
      for (int i = 0; i < page.num_tuples(); ++i) {
        DFDB_RETURN_IF_ERROR(EmitIfFresh(page.tuple(i), kAllPartitions, sink));
      }
      return Status::OK();
    case PlanOp::kDifference: {
      std::lock_guard<std::mutex> lock(mu_);
      if (slot == 1) {
        diff_.ConsumeRight(page);
        return Status::OK();
      }
      return diff_.ConsumeLeft(page, sink);
    }
    case PlanOp::kAggregate: {
      std::lock_guard<std::mutex> lock(mu_);
      return agg_->Consume(page);
    }
    case PlanOp::kAppend:
      return file_->AppendPage(page);
    case PlanOp::kDelete:
      return Status::OK();
    default:
      return Status::Internal(std::string(PlanOpToString(node_.op)) +
                              " consumes no unary pages");
  }
}

std::unique_ptr<JoinTable> NodeProgram::BuildInnerTable(
    const Page& inner) const {
  if (!join_.has_value() || !join_->hash_eligible()) return nullptr;
  auto table = std::make_unique<JoinTable>();
  BuildJoinTable(*join_, inner, table.get());
  return table;
}

void NodeProgram::HashOuter(const Page& outer, JoinScratch* scratch) const {
  if (join_.has_value()) HashOuterKeys(*join_, outer, scratch);
}

Status NodeProgram::Join(const Page& outer, const JoinScratch& scratch,
                         const Page& inner, const JoinTable* table,
                         PageSink* sink, KernelStats* stats) const {
  const JoinEmit emit = node_.join_emit();
  if (join_.has_value()) {
    return ProbeJoin(*join_, outer, scratch, inner, table, sink, stats, emit);
  }
  stats->interpreted_pages.fetch_add(1, std::memory_order_relaxed);
  stats->nested_joins.fetch_add(1, std::memory_order_relaxed);
  return JoinPages(node_.child(0).output_schema, node_.child(1).output_schema,
                   *node_.predicate, outer, inner, sink, emit);
}

Status NodeProgram::Finish(PageSink* sink) {
  if (!agg_.has_value()) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return Status::OK();
  finished_ = true;
  return agg_->Finish(sink);
}

Status NodeProgram::ApplyEffect() {
  if (node_.op == PlanOp::kDelete) {
    Status pred_error = Status::OK();
    auto removed = file_->DeleteWhere([&](const TupleView& t) {
      if (pred_.has_value()) return pred_->Matches(t.raw().data(), nullptr);
      auto r = node_.predicate->EvalBool(t, nullptr);
      if (!r.ok()) {
        if (pred_error.ok()) pred_error = r.status();
        return false;
      }
      return *r;
    });
    if (!removed.ok()) return removed.status().WithContext("delete");
    if (!pred_error.ok()) return pred_error.WithContext("delete predicate");
  } else if (node_.op != PlanOp::kAppend) {
    return Status::OK();
  }
  return storage_->SyncStats(file_->relation());
}

}  // namespace dfdb
