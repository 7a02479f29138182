/// \file plan.h
/// \brief The relational-algebra query tree (the paper's Figure 2.1).
///
/// "Each relational algebra query is generally comprised of one or more
/// relational algebra operations (instructions) and is organized in the form
/// of a tree." Each PlanNode is one such instruction; in the data-flow
/// engines every node becomes a memory cell / instruction-controller
/// assignment.

#ifndef DFDB_RA_PLAN_H_
#define DFDB_RA_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "ra/expr.h"
#include "ra/expr_compile.h"

namespace dfdb {

/// How a kScan leaf reads its relation. Chosen by
/// Optimizer::DecideAccessPaths from the consuming restrict's compiled
/// bounds and the catalog's index definitions; kFullScan is always safe and
/// IndexPolicy::kForceFullScan forces it at execution time.
enum class ScanAccessPath {
  kFullScan,  ///< Read every page of the snapshot view.
  kZoneMap,   ///< Skip pages whose zone map cannot contain a match.
  kGridFile,  ///< Grid-file candidate pages, then zone maps on top.
};

std::string_view ScanAccessPathToString(ScanAccessPath p);

/// Relational algebra operators (the paper names restrict, join, project,
/// append, delete; union/difference/aggregate round out the algebra).
enum class PlanOp {
  kScan,        ///< Leaf: read a base relation.
  kRestrict,    ///< Selection by predicate.
  kProject,     ///< Column elimination, optional duplicate elimination.
  kJoin,        ///< Conditional cross product (nested loops in the engine).
  kUnion,       ///< Bag or set union of union-compatible inputs.
  kDifference,  ///< Set difference of union-compatible inputs.
  kAggregate,   ///< Grouped aggregation (extension).
  kAppend,      ///< Insert the input stream into a base relation.
  kDelete,      ///< Remove matching tuples from a base relation.
};

std::string_view PlanOpToString(PlanOp op);

/// \brief One aggregate computation within a kAggregate node.
struct AggregateSpec {
  enum class Func { kCount, kSum, kMin, kMax, kAvg };
  Func func = Func::kCount;
  /// Input column; ignored for kCount.
  std::string column;
  /// Name of the output column.
  std::string output_name;
};

std::string_view AggregateFuncToString(AggregateSpec::Func f);

/// \brief The order of the two parts of each tuple a join emits: outer
/// (child 0) ++ inner (child 1) for a join as written, inner ++ outer for a
/// join the optimizer swapped (PlanNode::join_emit()). The order of the
/// tuples themselves is the same either way.
enum class JoinEmit {
  kOuterInner,  ///< outer ++ inner, the join as written.
  kInnerOuter,  ///< inner ++ outer, a swapped join.
};

/// \brief A node of the query tree.
///
/// Built by the helper constructors below, then resolved once by
/// Analyzer::Resolve which fills node ids, binds expressions, and computes
/// output schemas. After resolution the tree is immutable and may be shared
/// by concurrent engine runs.
struct PlanNode {
  PlanOp op;
  /// Post-order id assigned by the analyzer; -1 before resolution.
  int id = -1;

  std::vector<std::unique_ptr<PlanNode>> children;

  /// kScan: source relation. kAppend/kDelete: target relation.
  std::string relation;
  /// kRestrict/kJoin/kDelete predicate.
  ExprPtr predicate;
  /// kProject: output columns. kAggregate: group-by columns.
  std::vector<std::string> columns;
  /// kJoin: the optimizer traded the inputs (Optimizer's join ordering),
  /// so child(0) is the query's right input and child(1) its left, and the
  /// predicate's sides are swapped to match. The join still outputs the
  /// query's column order and names. Swapping a swapped join clears the
  /// flag. Read it through the join_* accessors below, which give the
  /// query's join whichever way the children run.
  bool join_swapped = false;
  /// kProject: eliminate duplicates (the full relational project).
  bool dedup = false;
  /// kUnion: keep duplicates (bag union) when true.
  bool bag_semantics = false;
  /// kAggregate only.
  std::vector<AggregateSpec> aggregates;

  /// Optimizer decision for the *edge* from this node to its consumer:
  /// when true, the backends may stream this node's output into the
  /// consumer in one pass — the threads engine skips the buffer-hierarchy
  /// round trip (and collapses unary chains into one fused program), the
  /// simulator folds the operator into the consumer's operand staging.
  /// Set by Optimizer::DecidePipelining; false (materialize) is always
  /// safe, and PipelinePolicy::kForceMaterialize clears the marks at
  /// execution time.
  bool pipeline_fused = false;

  /// kScan only: optimizer access-path decision plus the pre-resolved
  /// column-vs-constant bounds (from the consuming restrict's compiled
  /// predicate) the pruning layer tests pages against. Bounds are conjuncts
  /// of the full predicate, so dropping *only* pages where no tuple can
  /// satisfy some bound never changes the restrict's output.
  ScanAccessPath access_path = ScanAccessPath::kFullScan;
  /// kGridFile: name of the catalog index to probe.
  std::string index_name;
  std::vector<ColCompare> prune_bounds;

  /// kScan only: optimizer near-data pushdown decision. When true, the
  /// consuming restrict's compiled predicate runs inside the storage
  /// hierarchy (BufferManager::ReadFiltered in the threads engine, IC
  /// staging in the simulator) so only surviving tuples cross buffer
  /// levels and rings. Composes with access_path: pruning drops whole
  /// pages first, pushdown filters the residual pages. Set by
  /// Optimizer::DecidePushdown; false is always safe, and
  /// PushdownPolicy::kForceOff clears it at execution time.
  bool pushdown = false;

  /// Filled by the analyzer.
  Schema output_schema;
  bool resolved = false;

  bool is_leaf() const { return children.empty(); }
  int num_children() const { return static_cast<int>(children.size()); }
  const PlanNode& child(int i) const { return *children[static_cast<size_t>(i)]; }
  PlanNode& child(int i) { return *children[static_cast<size_t>(i)]; }

  /// \name kJoin as the query wrote it
  /// The outer (child 0) and inner (child 1) are the join as it runs; the
  /// query's left and right inputs are those two, traded back if the join
  /// is swapped. The output schema is join_left() ++ join_right(), written
  /// as each tuple's parts in join_emit() order.
  /// @{
  const PlanNode& join_left() const { return child(join_swapped ? 1 : 0); }
  const PlanNode& join_right() const { return child(join_swapped ? 0 : 1); }
  /// The predicate with join_left()'s columns on the left side: `predicate`
  /// itself, or an unbound copy with its sides swapped back.
  ExprPtr join_predicate() const;
  JoinEmit join_emit() const {
    return join_swapped ? JoinEmit::kInnerOuter : JoinEmit::kOuterInner;
  }
  /// @}

  /// Number of nodes in this subtree.
  int TreeSize() const;

  /// Indented multi-line rendering of the subtree.
  std::string ToString(int indent = 0) const;

  /// Deep copy (unresolved; the copy must be re-analyzed). Expressions are
  /// reconstructed unbound so the copy can be resolved and executed
  /// concurrently with other clones of the same template tree.
  std::unique_ptr<PlanNode> Clone() const;
};

using PlanNodePtr = std::unique_ptr<PlanNode>;

/// \brief How a backend treats the optimizer's per-edge pipeline marks
/// (PlanNode::pipeline_fused; see DESIGN.md "Pipeline fusion").
enum class PipelinePolicy {
  /// Fuse exactly the edges the optimizer marked (default).
  kHonorPlan,
  /// Materialize every edge regardless of marks — the pre-fusion
  /// behaviour, and the differential-testing baseline.
  kForceMaterialize,
};

/// \brief How a backend treats the optimizer's per-scan access-path marks
/// (PlanNode::access_path; see DESIGN.md "Indexing & page pruning").
enum class IndexPolicy {
  /// Prune marked scans through zone maps / grid files (default).
  kHonorPlan,
  /// Read every page regardless of marks — the pre-index behaviour, and
  /// the differential-testing baseline.
  kForceFullScan,
};

/// \brief How a backend treats the optimizer's per-scan pushdown marks
/// (PlanNode::pushdown; see DESIGN.md "Near-data pushdown").
enum class PushdownPolicy {
  /// Execute marked restricts inside the storage hierarchy (default).
  kHonorPlan,
  /// Ship raw pages and filter at the processors regardless of marks —
  /// the pre-pushdown behaviour, and the differential-testing baseline.
  kForceOff,
};

/// \brief Execution-time overrides of the optimizer's marks, shared by both
/// backends' option structs (ExecOptions and MachineOptions inherit it).
struct PlanPolicies {
  PipelinePolicy pipeline = PipelinePolicy::kHonorPlan;
  IndexPolicy index = IndexPolicy::kHonorPlan;
  PushdownPolicy pushdown = PushdownPolicy::kHonorPlan;
};

/// Clears every mark in the subtree \p root that \p policies override: the
/// pipeline_fused edges under kForceMaterialize, the access paths (back to
/// kFullScan) under kForceFullScan, and the pushdown marks under kForceOff.
/// Each backend calls it once per query, on its own resolved clone, and
/// then reads only the marks; a kHonorPlan value leaves its marks alone.
void ApplyPlanPolicies(const PlanPolicies& policies, PlanNode* root);

/// \name Tree constructors
/// @{
PlanNodePtr MakeScan(std::string relation);
PlanNodePtr MakeRestrict(PlanNodePtr child, ExprPtr predicate);
PlanNodePtr MakeProject(PlanNodePtr child, std::vector<std::string> columns,
                        bool dedup = false);
PlanNodePtr MakeJoin(PlanNodePtr left, PlanNodePtr right, ExprPtr predicate);
PlanNodePtr MakeUnion(PlanNodePtr left, PlanNodePtr right,
                      bool bag_semantics = false);
PlanNodePtr MakeDifference(PlanNodePtr left, PlanNodePtr right);
PlanNodePtr MakeAggregate(PlanNodePtr child, std::vector<std::string> group_by,
                          std::vector<AggregateSpec> aggregates);
PlanNodePtr MakeAppend(PlanNodePtr child, std::string target_relation);
PlanNodePtr MakeDelete(std::string target_relation, ExprPtr predicate);
/// @}

/// \brief A named query: a tree plus identity for admission control.
struct Query {
  uint64_t id = 0;
  std::string name;
  PlanNodePtr root;
};

}  // namespace dfdb

#endif  // DFDB_RA_PLAN_H_
