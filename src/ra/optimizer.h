/// \file optimizer.h
/// \brief Heuristic query-tree optimizer.
///
/// The paper's queries are hand-shaped trees; a downstream user wants the
/// system to shape them. This optimizer applies the classic rewrites that
/// matter most for the nested-loops data-flow engine:
///
///  1. restrict merging            — adjacent restricts fold into one AND;
///  2. predicate pushdown          — conjuncts move below joins, unions and
///                                   projections toward the scans, shrinking
///                                   every stream early;
///  3. join input ordering         — the smaller (estimated) input becomes
///                                   the inner relation, minimizing the
///                                   broadcast traffic of the Section 4.2
///                                   join and the IRC-vector length.
///
/// Cardinality estimates combine catalog statistics with selectivity
/// heuristics; columns following the benchmark convention "k<N>" (uniform
/// over [0,N)) get exact range selectivities.

#ifndef DFDB_RA_OPTIMIZER_H_
#define DFDB_RA_OPTIMIZER_H_

#include <string>

#include "catalog/catalog.h"
#include "ra/analyzer.h"
#include "ra/plan.h"

namespace dfdb {

/// \brief Rewrite counters for tests and EXPLAIN-style reporting.
struct OptimizerReport {
  int restricts_merged = 0;
  int predicates_pushed = 0;
  int joins_swapped = 0;

  /// Per-edge pipeline decision (DecidePipelining). Every operator→consumer
  /// edge is either fused or materialized; materialized edges additionally
  /// record *why* fusion was refused, mirroring the compile-or-interpret
  /// contract of the kernel layer.
  int edges_fused = 0;
  int edges_materialized = 0;
  int fallback_unsupported_producer = 0;  ///< Producer op cannot stream.
  int fallback_unsupported_consumer = 0;  ///< Consumer cannot take a stream.
  int fallback_predicate_not_compiled = 0;  ///< Predicate refused to compile.
  int fallback_high_fanout = 0;  ///< Join fanout estimate over threshold.

  /// Per-scan access-path decision (DecideAccessPaths). Every kScan leaf is
  /// counted exactly once.
  int scans_full = 0;
  int scans_zonemap = 0;
  int scans_gridfile = 0;

  /// Per-scan near-data pushdown decision (DecidePushdown).
  int scans_pushdown = 0;
  /// Restrict-over-scan shapes left on the raw path: the predicate refused
  /// compilation or the estimated selectivity was above the device
  /// breakeven (kPushdownSelectivity).
  int pushdown_rejected = 0;

  std::string ToString() const;
};

/// \brief Rule-based optimizer over resolved plans.
class Optimizer {
 public:
  explicit Optimizer(const Catalog* catalog) : catalog_(catalog) {}

  /// Returns an optimized copy of \p plan (which may be unresolved). The
  /// result is resolved. If a rewrite would not re-resolve (a rule bug),
  /// the original resolved clone is returned instead — optimization is
  /// never allowed to break a valid query.
  StatusOr<PlanNodePtr> Optimize(const PlanNode& plan,
                                 OptimizerReport* report = nullptr) const;

  /// Estimated output rows of a resolved node (used by the join-ordering
  /// rule; exposed for tests and EXPLAIN output).
  double EstimateRows(const PlanNode& node) const;

  /// Estimated selectivity in [0,1] of \p pred against \p schema.
  double EstimateSelectivity(const Expr& pred, const Schema& schema) const;

  /// Marks each edge of a *resolved* tree pipeline-fused or materialized
  /// (PlanNode::pipeline_fused on the producer) and counts the decisions in
  /// \p report. An edge fuses when it passes the safety conditions of
  /// PipelineEdgeSafe() *and* the catalog stats do not veto it: an edge
  /// into a join whose estimated fanout (output rows per producer row)
  /// exceeds kPipelineFanoutLimit materializes, so a fused stream never
  /// feeds a multiplying consumer that would hold its pages live while
  /// re-expanding them. Run automatically by Optimize(); exposed for
  /// hand-shaped plans and tests.
  void DecidePipelining(PlanNode* root, OptimizerReport* report) const;

  /// Join-fanout threshold above which DecidePipelining falls back to
  /// materialization (output rows per fused input row).
  static constexpr double kPipelineFanoutLimit = 16.0;

  /// Marks each kScan leaf of a *resolved* tree with an access path
  /// (PlanNode::access_path / index_name / prune_bounds) and counts the
  /// decisions in \p report. A scan consumed by a restrict whose predicate
  /// compiles to column-vs-constant conjuncts gets those conjuncts as
  /// prune bounds (zone-map pruning); if a catalog index covers one of the
  /// bound columns and the estimated selectivity is below
  /// kGridFileSelectivity, the scan probes that grid file first. Scans
  /// feeding kDelete are never marked (the delete rewrites the working
  /// head, not a snapshot version). Run automatically by Optimize();
  /// exposed for hand-shaped plans and tests.
  void DecideAccessPaths(PlanNode* root, OptimizerReport* report) const;

  /// Selectivity threshold below which a covering grid file is probed; at
  /// higher selectivities most cells qualify and the probe is pure
  /// overhead over zone maps.
  static constexpr double kGridFileSelectivity = 0.25;

  /// Marks each kScan leaf consumed by a restrict whose predicate compiles
  /// as near-data pushable (PlanNode::pushdown) and counts the decisions in
  /// \p report. Composes with DecideAccessPaths (run it first): access-path
  /// pruning drops whole pages, pushdown filters the residual pages inside
  /// the storage hierarchy. The decision rule follows the filtered-transfer
  /// cost model (CcdCacheModel::FilteredAccessTime): pushing down pays
  /// scanned/filter_rate + surviving/port_rate against the raw path's
  /// scanned/port_rate, so it wins when estimated selectivity is below
  /// 1 - port_rate/filter_rate = kPushdownSelectivity. Run automatically by
  /// Optimize(); exposed for hand-shaped plans and tests.
  void DecidePushdown(PlanNode* root, OptimizerReport* report) const;

  /// Selectivity breakeven for near-data pushdown (see DecidePushdown).
  static constexpr double kPushdownSelectivity = 0.75;

 private:
  const Catalog* catalog_;
};

/// \brief Safety-only half of the per-edge decision (stats are not
/// consulted). The threads engine re-checks every marked edge with it and
/// materializes the ones it rejects (a hand-marked plan); differential
/// tests mark every edge it accepts to fuse wherever fusion is safe.
///
/// True when streaming \p producer's output straight into \p consumer
/// provably preserves results: the producer is a restrict whose predicate
/// compiles (see expr_compile.h) or a projection without duplicate
/// elimination, and the consumer is a join, a restrict, or a non-dedup
/// projection. Everything else — aggregates,
/// unions, differences, writes, interpreted predicates — materializes, the
/// conservative fallback.
bool PipelineEdgeSafe(const PlanNode& producer, const PlanNode& consumer);

/// \brief One hash-partitionable equality conjunct `left.col = right.col`
/// of a join predicate.
///
/// Restricted to identical non-double column types on the two sides — the
/// same rule the compiled hash join applies (expr_compile.h), so a key the
/// distributed planner partitions on is also a key the worker-local join
/// can hash on.
struct EquiJoinKey {
  std::string left_column;
  std::string right_column;
};

/// Extracts every hash-partitionable equi-key conjunct of a kJoin node
/// whose children are resolved (their output schemas are consulted for the
/// type rule), left and right as the query wrote the join (the join_left()
/// and join_right() of a swapped join). Non-join nodes and predicates
/// without usable conjuncts yield an empty vector. Used by the distributed
/// fragment planner (dist/fragment.h) to derive partitioning properties
/// and cut exchanges.
std::vector<EquiJoinKey> ExtractEquiJoinKeys(const PlanNode& join);

}  // namespace dfdb

#endif  // DFDB_RA_OPTIMIZER_H_
