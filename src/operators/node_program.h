/// \file node_program.h
/// \brief What one plan node computes, built once and run by either backend.
///
/// In the paper an instruction packet carries an operator plus its operand
/// pages, and any instruction processor executes it the same way (Sections
/// 2.2 and 4.0). A NodeProgram is that operator for one plan node: the
/// compiled restrict/join/delete predicate (or its interpreted fallback),
/// the resolved projection columns, the target heap file, and the
/// dedup/union/difference/aggregate state. The threads engine runs it from
/// its worker tasks and the ring simulator from its simulated IPs; each
/// backend keeps only how pages reach the program and how long that takes.
///
/// Kernel counting happens here too, so both backends count kernel.* the
/// same way: one compile_fallbacks per node whose predicate the compiler
/// refuses, counted when the program is built, and the per-page rows of
/// kernels.h as pages run.

#ifndef DFDB_OPERATORS_NODE_PROGRAM_H_
#define DFDB_OPERATORS_NODE_PROGRAM_H_

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/macros.h"
#include "obs/counters.h"
#include "operators/compiled_aggregate.h"
#include "operators/dedup.h"
#include "operators/kernels.h"
#include "operators/set_ops.h"
#include "ra/expr_compile.h"
#include "ra/plan.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/page_sink.h"
#include "storage/storage_engine.h"

namespace dfdb {

/// \brief The operator of one resolved plan node. Consume() and Join() are
/// safe to call from concurrent threads; the state they share is locked
/// per dedup shard, per set-union tuple and per difference or aggregate
/// page.
class NodeProgram {
 public:
  /// Shards of a deduplicating project unless the caller picks a count.
  /// Equal tuples always hash to the same shard, so the count changes no
  /// result, only how many concurrent tasks can insert at once.
  static constexpr int kDedupShards = 16;
  /// Consume() over every shard of a deduplicating project.
  static constexpr int kAllPartitions = -1;

  /// Builds the program of \p node, which the Analyzer resolved (its
  /// children carry their output schemas) and which must outlive the
  /// program. A predicate the compiler refuses is no error: the
  /// program interprets it per tuple and counts one
  /// kernel.compile_fallbacks into \p stats. \p storage resolves the heap
  /// file of an append or delete. \p dedup_shards is the shard count
  /// of a deduplicating project.
  static StatusOr<std::unique_ptr<NodeProgram>> Build(
      const PlanNode& node, StorageEngine* storage, KernelStats* stats,
      int dedup_shards = kDedupShards);

  DFDB_DISALLOW_COPY(NodeProgram);

  /// Runs the operator on one page of input \p slot, emitting into \p sink.
  /// A deduplicating project handles only the tuples that hash to shard
  /// \p partition, or all of them with kAllPartitions. A delete consumes
  /// nothing here: its pages only carry the target to the processor, and
  /// the deletion is ApplyEffect().
  Status Consume(int slot, const Page& page, PageSink* sink,
                 KernelStats* stats, int partition = kAllPartitions);

  /// The hash table of one inner page (kJoin), built once when the page
  /// reaches the join and probed by every outer page after. Null when the
  /// join runs nested loops: no equi-keys, or an interpreted predicate.
  std::unique_ptr<JoinTable> BuildInnerTable(const Page& inner) const;

  /// Hashes \p outer's join keys into \p scratch for Join(), once per
  /// outer page however many inner pages it meets.
  void HashOuter(const Page& outer, JoinScratch* scratch) const;

  /// Joins one outer page with one inner page (kJoin). \p table is the
  /// inner page's BuildInnerTable() and \p scratch holds HashOuter(outer).
  /// The parts of each tuple go in PlanNode::join_emit() order.
  Status Join(const Page& outer, const JoinScratch& scratch, const Page& inner,
              const JoinTable* table, PageSink* sink,
              KernelStats* stats) const;

  /// After the last input page: an aggregate emits its groups, once. A
  /// no-op for every other op, and on a second call.
  Status Finish(PageSink* sink);
  /// True while an aggregate has groups Finish() has not emitted.
  bool finish_pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return agg_.has_value() && !finished_;
  }

  /// The node's storage effect, applied once after its last input: a
  /// delete removes the matching tuples of its target, then an append or
  /// delete commits the target and refreshes its statistics. A no-op for
  /// every other op.
  Status ApplyEffect();

  /// The heap file an append or delete writes, else null.
  HeapFile* file() const { return file_; }

 private:
  struct Shard {
    std::mutex mu;
    DuplicateEliminator seen;
  };

  NodeProgram(const PlanNode& node, StorageEngine* storage)
      : node_(node), storage_(storage) {}

  /// The schema of input 0, or a delete's own relation.
  const Schema& InputSchema() const {
    return node_.num_children() > 0 ? node_.child(0).output_schema
                                    : node_.output_schema;
  }
  /// Emits \p tuple unless its shard (or another task) has seen it; skips
  /// tuples outside \p partition.
  Status EmitIfFresh(Slice tuple, int partition, PageSink* sink);

  const PlanNode& node_;
  StorageEngine* storage_;
  std::optional<CompiledPredicate> pred_;      ///< kRestrict / kDelete.
  std::optional<CompiledJoinPredicate> join_;  ///< kJoin.
  std::vector<int> columns_;                   ///< kProject.
  HeapFile* file_ = nullptr;  ///< kAppend / kDelete.
  /// Deduplicating project (one per shard) and set union (one).
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex mu_;  ///< Guards diff_, agg_ and finished_.
  DifferenceOp diff_;
  std::optional<CompiledAggregate> agg_;
  bool finished_ = false;
};

}  // namespace dfdb

#endif  // DFDB_OPERATORS_NODE_PROGRAM_H_
