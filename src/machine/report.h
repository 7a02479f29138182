/// \file report.h
/// \brief Machine-simulation configuration and measurement report.

#ifndef DFDB_MACHINE_REPORT_H_
#define DFDB_MACHINE_REPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "engine/exec_options.h"
#include "engine/query_result.h"
#include "machine/fault_injector.h"
#include "obs/counters.h"
#include "obs/run_report.h"
#include "storage/device_model.h"

namespace dfdb {

/// \brief Simulation knobs beyond the hardware configuration. The inherited
/// PlanPolicies override the optimizer's marks when CompileProgram compiles
/// the batch.
struct MachineOptions : PlanPolicies {
  MachineConfig config;
  Granularity granularity = Granularity::kPage;
  /// Requirement 4 (Section 4.0): broadcast inner-relation pages to every
  /// joining IP in one ring insertion. Disabled = unicast per IP (ablation).
  bool broadcast_join = true;
  /// Section 5.0 future work: "route some of the data pages which are
  /// produced by IPs directly from one IP to another without first sending
  /// the page to an IC". When enabled, result pages bound for a streaming
  /// (non-join, non-barrier) consumer skip the IC: the controlling IC gets
  /// a notification and later dispatches a header-only instruction packet,
  /// so the page crosses the outer ring once instead of twice.
  bool ip_direct_routing = false;
  /// The paper's acknowledged cost: "increased IP complexity". Extra
  /// per-packet processing charged at the consuming IP for directly routed
  /// pages (buffer management it would otherwise not do).
  SimTime direct_routing_overhead = SimTime::Micros(200);
  /// Section 5.0 future work: a parallel algorithm for the project
  /// operator with duplicate elimination (the paper: "we have not yet
  /// developed an algorithm for which a high degree of parallelism can be
  /// maintained"). When enabled, dedup-projects run at page granularity
  /// across multiple IPs: every input page is broadcast once; IP i keeps
  /// the duplicate-elimination state for hash partition i and emits only
  /// its partition's first-seen tuples. Disabled = the paper's default
  /// (single-IP barrier).
  bool parallel_project = false;
  /// Partition count for parallel project (also its maximum IP
  /// parallelism).
  int project_partitions = 8;
  /// Safety valve against runaway simulations.
  uint64_t max_events = 500000000;
  /// Deterministic fault schedule (empty = perfect hardware). With a
  /// non-empty plan the ICs keep assignments pending until acknowledged,
  /// time out lost ones, retransmit with backoff, and re-dispatch units
  /// stranded on dead processors to survivors.
  FaultPlan fault_plan;
  /// Record a per-run obs::Trace in event order (sim-time timestamps, so
  /// two identically-seeded runs produce byte-identical traces). Off by
  /// default: tracing costs one branch per event site.
  bool enable_trace = false;
};

/// \brief Everything measured by one simulation run. Its counters are the
/// machine.* rows of obs/counters.h: packet and event counts and the
/// pipeline family as direct members, the other families grouped.
struct MachineReport : MachineCounters {
  SimTime makespan;
  std::vector<SimTime> query_completion;  ///< Per query, submission order.
  LevelBytes bytes;
  SimTime ip_busy_total;
  int num_ips = 0;
  FaultStats faults;
  /// Compiled-vs-interpreted kernel split at the IPs.
  KernelStatsSnapshot kernel;
  /// Access-path pruning during IC staging: pages never fetched into the
  /// ring because a zone map or grid-file probe proved them irrelevant.
  IndexPruneCounters index;
  /// Near-data pushdown during IC staging: raw pages filtered at the cache
  /// port, so only survivors crossed cache -> IC.
  PushdownCounters pushdown;
  /// Root outputs with real tuples (the simulator is execution-driven).
  std::vector<QueryResult> results;
  /// Event trace, or nullptr unless MachineOptions::enable_trace was set.
  std::shared_ptr<const obs::Trace> trace;

  double OuterRingBps() const {
    const double s = makespan.ToSecondsF();
    return s > 0 ? static_cast<double>(bytes.outer_ring) * 8.0 / s : 0.0;
  }
  double InnerRingBps() const {
    const double s = makespan.ToSecondsF();
    return s > 0 ? static_cast<double>(bytes.inner_ring) * 8.0 / s : 0.0;
  }
  double CacheBps() const {
    const double s = makespan.ToSecondsF();
    return s > 0 ? static_cast<double>(bytes.cache_to_ic + bytes.ic_to_cache) *
                       8.0 / s
                 : 0.0;
  }
  double DiskBps() const {
    const double s = makespan.ToSecondsF();
    return s > 0 ? static_cast<double>(bytes.disk_read + bytes.disk_write) *
                       8.0 / s
                 : 0.0;
  }
  double IpUtilization() const {
    const double denom = makespan.ToSecondsF() * num_ips;
    return denom > 0 ? ip_busy_total.ToSecondsF() / denom : 0.0;
  }

  /// Backend-agnostic view (counters under `machine.*`); simulated time is
  /// deterministic, so the report's JSON is byte-identical across
  /// identically-seeded runs.
  obs::RunReport ToReport() const;

  std::string ToString() const;
};

}  // namespace dfdb

#endif  // DFDB_MACHINE_REPORT_H_
