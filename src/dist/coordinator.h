/// \file coordinator.h
/// \brief The scale-out query coordinator: fragment dispatch and shuffle
/// routing across a set of dfdb_server workers.
///
/// Topology is a coordinator-routed star — every exchange batch flows
/// worker → coordinator → worker. That is deliberately the paper's outer
/// ring made explicit: Section 4's ring machine moves every result packet
/// over the shared outer ring, and Figure 4.2 measures how that shared
/// path saturates as processors are added. The coordinator plays the same
/// role here, so the simulator's outer-ring utilisation and the real
/// cluster's `dist.shuffle.*` gauges land in one comparable table
/// (bench/bench_distributed_join.cc).
///
/// Per query: parse → FragmentPlanner (dist/fragment.h) → dispatch every
/// kFragment frame → route kExchangeData batches by partition id (worker
/// index) under credit-based flow control → concatenate the root gather
/// stream. There is no coordinator-side merge operator: the planner
/// arranges shuffles so every join/aggregate/dedup group is computed
/// exactly once on exactly one worker.
///
/// Threading: one reader + one sender thread per worker while a query is
/// in flight. Readers never block on sends (they enqueue to the target
/// worker's sender), senders alone gate data frames on consumer input
/// credits, and credit grants flow back on reader threads — so the credit
/// loop cannot deadlock, including worker-to-itself shuffles.

#ifndef DFDB_DIST_COORDINATOR_H_
#define DFDB_DIST_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/macros.h"
#include "common/statusor.h"
#include "dist/fragment.h"
#include "net/client.h"
#include "obs/counters.h"
#include "obs/metrics.h"

namespace dfdb {
namespace dist {

struct WorkerAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct CoordinatorOptions {
  std::vector<WorkerAddress> workers;
  /// Column base relations are hash-partitioned on (must match how the
  /// workers were loaded; see tools/dfdb_cluster.cc).
  std::string partition_column = "id";
  /// Broadcast-vs-repartition threshold handed to the fragment planner.
  uint64_t broadcast_max_bytes = 96 * 1024;
  /// Deadline stamped into every fragment; 0 = none.
  uint32_t deadline_ms = 0;
  /// Per-worker connection knobs.
  net::ClientOptions client;
};

/// \brief The coordinator's counters: the dist.* rows of obs/counters.h.
/// With bytes_shuffled, shuffle_micros yields the dist.shuffle.mbit_s
/// gauge mirroring the simulator's Fig 4.2 ring.
struct DistStats {
  DFDB_PLAIN_COUNTERS(DistStats, DFDB_DIST_COUNTERS)
};
struct DistCounters {
  DFDB_ATOMIC_COUNTERS(DistStats, DFDB_DIST_COUNTERS)
};

/// \brief Plans and executes queries across a fixed set of workers.
///
/// Thread-compatible: Execute() serializes internally; use one coordinator
/// per cluster. Workers must all hold the same partition_column-partitioned
/// slice layout of the catalog's relations.
class Coordinator {
 public:
  Coordinator(const Catalog* catalog, CoordinatorOptions options);
  ~Coordinator();
  DFDB_DISALLOW_COPY(Coordinator);

  /// Dials every worker (idempotent: reconnects only the dead ones).
  Status Connect();

  /// Runs one RAQL query across the cluster and reassembles the gathered
  /// result. Read-only queries only. A failed query closes every worker
  /// connection, so Execute first dials any worker whose connection is
  /// closed: one failed query does not take the cluster down.
  StatusOr<net::RemoteResult> Execute(const std::string& text);

  int num_workers() const { return static_cast<int>(options_.workers.size()); }
  const DistCounters& counters() const { return counters_; }

  /// Exports dist.* counters plus the derived dist.shuffle.mbit_s gauge.
  void SnapshotMetrics(obs::MetricsRegistry* registry) const;

 private:
  struct Run;  // Per-query routing state (defined in coordinator.cc).

  /// Connect()'s loop; the caller holds mu_.
  Status DialClosedWorkers();
  StatusOr<net::RemoteResult> RunPlan(const DistributedPlan& plan);

  const Catalog* catalog_;
  const CoordinatorOptions options_;
  std::vector<net::Client> workers_;
  uint32_t next_exchange_id_ = 1;
  std::mutex mu_;  ///< Serializes Execute().
  DistCounters counters_;
};

}  // namespace dist
}  // namespace dfdb

#endif  // DFDB_DIST_COORDINATOR_H_
