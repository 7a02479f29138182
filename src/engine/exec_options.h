/// \file exec_options.h
/// \brief Execution configuration: granularity, processors, memory cells.

#ifndef DFDB_ENGINE_EXEC_OPTIONS_H_
#define DFDB_ENGINE_EXEC_OPTIONS_H_

#include <string_view>

#include "ra/plan.h"

namespace dfdb {

/// \brief The paper's three operand granularities (Section 3.0).
enum class Granularity {
  /// "A node ... is enabled for execution only when its source operand(s)
  /// has (have) been completely computed." (Section 3.1)
  kRelation,
  /// "An operator can be initiated as soon as at least one page of each
  /// participating relation(s) exists." (Section 3.2)
  kPage,
  /// "A tuple of a relation is the basic unit which is used for scheduling
  /// decisions." (Section 3.3)
  kTuple,
};

std::string_view GranularityToString(Granularity g);

/// Payload bytes of one scheduling unit of tuples \p tuple_width wide
/// (raised to 1): one tuple under kTuple, else a page of \p page_bytes,
/// raised to one tuple when smaller.
int UnitBytes(Granularity g, int page_bytes, int tuple_width);

/// \brief Deterministic fault schedule for the threaded engine — the
/// analogue of the machine simulator's FaultPlan. Workers abandon work at
/// operator-packet boundaries, so a restarted task re-runs from scratch and
/// results are unchanged; poisoned packets model corrupted instruction
/// packets that the dispatcher detects (checksum) and drops.
struct EngineFaultPlan {
  /// Workers that abandon mid-query and exit (clamped so at least one
  /// worker survives).
  int abandon_workers = 0;
  /// Abandon point, counted in tasks claimed by the whole pool: the
  /// workers taking claims abandon_after_tasks + 1 through
  /// abandon_after_tasks + abandon_workers (clamped) each hand that task
  /// back and exit. A handed-back task is claimed again, so a batch of
  /// more than abandon_after_tasks tasks always loses exactly that many
  /// workers, however the claims interleave.
  uint64_t abandon_after_tasks = 4;
  /// Corrupted no-op packets injected into the task queue.
  int poison_packets = 0;

  bool active() const { return abandon_workers > 0 || poison_packets > 0; }
};

/// \brief Knobs of one engine instantiation. The inherited PlanPolicies
/// override the optimizer's marks on each query's resolved clone.
struct ExecOptions : PlanPolicies {
  Granularity granularity = Granularity::kPage;

  /// Number of worker threads = instruction processors.
  int num_processors = 4;

  /// Memory cells per processor (the paper's benchmark fixes 2): bounds how
  /// many enabled-but-unexecuted instruction packets may be outstanding,
  /// throttling the scan sources.
  int memory_cells_per_processor = 2;

  /// Page size (payload bytes) for intermediate relations. With kTuple
  /// granularity edges carry single-tuple pages regardless of this value.
  int page_bytes = 16384;

  /// Capacity of the local-memory level of the buffer hierarchy, in pages.
  int local_memory_pages = 64;

  /// Capacity of the disk-cache level, in pages.
  int disk_cache_pages = 512;

  /// Per-packet overhead bytes ("c" in the Section 3.3 analysis) counted in
  /// the network-traffic statistics.
  int packet_overhead_bytes = 64;

  /// Deterministic fault schedule (empty = healthy workers).
  EngineFaultPlan fault_plan;

  /// Record a per-run obs::Trace of task/packet/page/fault events. Off by
  /// default: with tracing disabled the engine only keeps its counters and
  /// the observability layer costs one branch per event site.
  bool enable_trace = false;
};

}  // namespace dfdb

#endif  // DFDB_ENGINE_EXEC_OPTIONS_H_
