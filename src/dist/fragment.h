/// \file fragment.h
/// \brief Cuts a resolved plan tree into distributed fragments.
///
/// The paper's machine distributes one query across many processors by
/// streaming operand packets between cells; the scale-out engine does the
/// moral equivalent across `dfdb_server` processes. The planner walks the
/// analyzer-resolved tree bottom-up, keeping each subtree as composable
/// RAQL text for as long as the data can stay where it is, and *cutting*
/// the stream into a fragment whenever tuples must move:
///
///  - **repartition** both sides of an equi-join on the join key columns
///    (the distributed hash join),
///  - **broadcast** a small side (chosen from catalog cardinality stats)
///    so the big side never moves,
///  - **gather** onto one worker for operators with no partition-friendly
///    decomposition (set union, difference, global aggregates, dedup over
///    unhashable columns).
///
/// Base relations are assumed hash-partitioned across workers on
/// `options.partition_column` (workload/paper_benchmark.h's convention,
/// enforced by tools/dfdb_cluster at load time), which is what lets a
/// restrict/project pipeline run fully local and an aggregate grouped by
/// the partition column skip its shuffle.
///
/// Fragments reference their inputs as scans of coordinator-named temp
/// relations (`__exq<id>`), which workers materialize from kExchangeData
/// frames before executing the fragment text (net/fragment_host.h).

#ifndef DFDB_DIST_FRAGMENT_H_
#define DFDB_DIST_FRAGMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/statusor.h"
#include "net/protocol.h"
#include "ra/optimizer.h"
#include "ra/plan.h"

namespace dfdb {
namespace dist {

/// \brief One fragment of the distributed plan: a FragmentRequest plus the
/// worker set it runs on (worker 0 only, or every worker).
struct FragmentUnit {
  bool singleton = false;
  net::FragmentRequest request;
};

/// \brief One exchange edge of the plan, for the executor's routing and
/// EOF bookkeeping. Consumers are derived from FragmentUnit inputs.
struct StreamRoute {
  uint32_t exchange_id = 0;
  int producer_fragment = -1;  ///< Index into DistributedPlan::fragments.
  net::ExchangeMode mode = net::ExchangeMode::kGather;
};

/// \brief A fully cut plan: fragments in dependency order (root last, its
/// kGather output consumed by the coordinator itself).
struct DistributedPlan {
  std::vector<FragmentUnit> fragments;
  std::vector<StreamRoute> streams;
  uint32_t root_exchange_id = 0;
  Schema result_schema;
  int num_workers = 1;
  /// First exchange id not used by this plan (the coordinator threads it
  /// into the next query so temp names never collide across queries).
  uint32_t next_exchange_id = 1;
};

struct FragmentPlannerOptions {
  int num_workers = 1;
  /// Column base relations are hash-partitioned on across workers.
  std::string partition_column = "id";
  /// A join side estimated at or under this many bytes is broadcast
  /// instead of repartitioning both sides.
  uint64_t broadcast_max_bytes = 96 * 1024;
  /// Deadline stamped into every fragment; 0 = none.
  uint32_t deadline_ms = 0;
  /// First exchange id to allocate.
  uint32_t first_exchange_id = 1;
};

/// \brief Bottom-up fragment cutter over one resolved query.
///
/// Single-query, single-use: construct, Plan(), read the result. The
/// catalog provides schemas and cardinality stats only — the coordinator
/// plans against a data-free catalog (workload BuildPaperCatalog).
class FragmentPlanner {
 public:
  FragmentPlanner(const Catalog* catalog, FragmentPlannerOptions options);

  /// Resolves \p root against the catalog (in place, idempotent) and cuts
  /// it. InvalidArgument for writes (append/delete) — distributed
  /// execution is read-only — and for constructs RAQL cannot express.
  StatusOr<DistributedPlan> Plan(PlanNode* root);

 private:
  struct Stream;

  StatusOr<Stream> BuildStream(const PlanNode& node);
  StatusOr<Stream> BuildScan(const PlanNode& node);
  StatusOr<Stream> BuildJoin(const PlanNode& node);
  StatusOr<Stream> BuildAggregate(const PlanNode& node);
  StatusOr<Stream> BuildProject(const PlanNode& node);
  StatusOr<Stream> BuildBinarySetOp(const PlanNode& node);

  /// Cuts \p s into its own fragment whose output moves with \p mode;
  /// returns the stream reading the routed temp relation.
  StatusOr<Stream> Cut(Stream s, net::ExchangeMode mode,
                       const std::vector<std::string>& key_columns);

  /// Estimated stream size in bytes (optimizer cardinality x tuple width).
  uint64_t EstimateBytes(const Stream& s) const;

  const Catalog* catalog_;
  const FragmentPlannerOptions options_;
  Optimizer optimizer_;
  DistributedPlan plan_;
  uint32_t next_exchange_id_;
};

/// \brief Temp relation name workers materialize exchange \p id into.
std::string ExchangeTempName(uint32_t exchange_id);

}  // namespace dist
}  // namespace dfdb

#endif  // DFDB_DIST_FRAGMENT_H_
