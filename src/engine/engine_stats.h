/// \file engine_stats.h
/// \brief Execution statistics gathered by the dataflow engine.

#ifndef DFDB_ENGINE_ENGINE_STATS_H_
#define DFDB_ENGINE_ENGINE_STATS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "obs/counters.h"
#include "obs/run_report.h"

namespace dfdb {

/// \brief Immutable snapshot of one query (or batch) execution.
///
/// Per-query snapshots ride on QueryResult::stats(); the batch aggregate is
/// returned through the `batch_stats` out-parameter of
/// Executor::Execute/ExecuteBatch. Fault counters and buffer traffic are
/// pool-wide, so they appear only in the batch aggregate (zero in per-query
/// snapshots). The counters are the engine.* and storage.* rows of
/// obs/counters.h: the ExecCounters rows as direct members, the other
/// families grouped.
struct ExecStats : ExecCounters {
  double wall_seconds = 0;
  /// Which pages ran compiled programs vs Expr trees, how often compilation
  /// was refused, and which join path page pairs took.
  KernelStatsSnapshot kernel;
  /// Pages skipped via zone maps / grid-file probes on marked scans.
  IndexPruneCounters index;
  /// Restricts executed inside the buffer hierarchy on marked scans.
  PushdownCounters pushdown;
  /// MC admission: per-query snapshots carry this query's own values;
  /// batch and scheduler aggregates carry totals.
  SchedCounters sched;
  /// Storage-wide MVCC state observed at completion: the counting rows as
  /// deltas since the scheduler started, the gauges absolute.
  MvccStats mvcc;
  BufferStats buffer;
  /// Event trace of the run this snapshot belongs to, when
  /// ExecOptions::enable_trace was set (shared across the batch; events
  /// carry their query index). Null otherwise.
  std::shared_ptr<const obs::Trace> trace;

  uint64_t network_bytes() const {
    return arbitration_bytes + distribution_bytes + overhead_bytes;
  }

  /// Average offered network load over the run, bits per second.
  double network_bps() const {
    return wall_seconds > 0
               ? static_cast<double>(network_bytes()) * 8.0 / wall_seconds
               : 0.0;
  }

  /// Adds every counter family of \p o (gauges excepted); wall_seconds and
  /// trace are left alone.
  ExecStats& operator+=(const ExecStats& o);

  /// Backend-agnostic view (counters under `engine.*` / `storage.*`).
  obs::RunReport ToReport() const;

  std::string ToString() const;
};

/// \brief Thread-safe counters updated by worker threads: the atomic twins
/// of ExecStats' families.
struct EngineCounters : AtomicExecCounters {
  KernelStats kernel;
  IndexPruneStats index;
  PushdownStats pushdown;

  /// Relaxed loads of every family into the matching members of \p out.
  void SnapshotInto(ExecStats* out) const {
    static_cast<ExecCounters&>(*out) = Snapshot();
    out->kernel = kernel.Snapshot();
    out->index = index.Snapshot();
    out->pushdown = pushdown.Snapshot();
  }
};

/// Registers every ExecStats counter into \p registry under the
/// observability naming scheme (`engine.tasks_executed`,
/// `engine.faults.injected`, `storage.cache_hits`, ...) plus the derived
/// `engine.network_bytes`.
void RegisterMetrics(const ExecStats& stats, obs::MetricsRegistry* registry);

}  // namespace dfdb

#endif  // DFDB_ENGINE_ENGINE_STATS_H_
