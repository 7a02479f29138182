/// \file counters.h
/// \brief The counter table: every exported counter is declared here once.
///
/// The paper argues from counted traffic (bytes per storage level in Figure
/// 4.2, bytes per network path in Section 3.3); these counters are that
/// vocabulary for both backends. Each family is an X-macro list with one
/// row per counter:
///
///   X(member, "export key", kind, "help")
///
/// Inside a struct, DFDB_PLAIN_COUNTERS expands a list into the uint64_t
/// members that reports and snapshots carry, DFDB_ATOMIC_COUNTERS into the
/// relaxed-atomic twin that workers bump with fetch_add on named members.
/// The generic helpers below walk the same rows to sum, export and print
/// any family, so adding a counter is one row here plus its increment
/// site(s). The help text documents the row; nothing reads it at run time.
///
/// Export keys are relative to the prefix a report exports the family under:
/// `engine.` (threads engine), `machine.` (ring simulator) or `storage.`
/// (the engine's buffer hierarchy).

#ifndef DFDB_OBS_COUNTERS_H_
#define DFDB_OBS_COUNTERS_H_

#include <array>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>

namespace dfdb {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// What a counter measures; decides how it is summed and printed.
enum class CounterKind {
  kCount,  ///< Events. Summed.
  kBytes,  ///< Bytes. Summed; printed in human units.
  kNs,     ///< Nanoseconds. Summed; printed in milliseconds.
  kGauge,  ///< A level at one instant. Never summed or subtracted.
};

// ---------------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------------

/// engine.*: the paper's network-bandwidth analysis. Every instruction
/// packet's operand bytes pass the arbitration path to a processor, every
/// result page the distribution path back. The fault rows count the
/// EngineFaultPlan pool-wide.
#define DFDB_ENGINE_COUNTERS(X)                                               \
  X(tasks_executed, "tasks_executed", kCount, "Tasks run by workers")         \
  X(scan_throttle_yields, "scan_throttle_yields", kCount,                     \
    "Scan steps that found every memory cell full and yielded")              \
  X(packets, "packets", kCount,                                               \
    "Instruction packets; a join task counts once per inner page it reads")   \
  X(arbitration_bytes, "arbitration_bytes", kBytes,                           \
    "Operand payload bytes, memory to processor")                             \
  X(distribution_bytes, "distribution_bytes", kBytes,                         \
    "Result payload bytes, processor to memory")                              \
  X(overhead_bytes, "overhead_bytes", kBytes, "Packets times packet overhead") \
  X(pages_produced, "pages_produced", kCount, "Result pages built")           \
  X(tuples_produced, "tuples_produced", kCount, "Result tuples built")        \
  X(faults_injected, "faults.injected", kCount, "Faults injected")            \
  X(workers_abandoned, "faults.workers_abandoned", kCount,                    \
    "Workers that abandoned a task and exited")                               \
  X(redispatched_tasks, "faults.redispatched_tasks", kCount,                  \
    "Abandoned tasks completed by a survivor")                                \
  X(poison_dropped, "faults.poison_dropped", kCount,                          \
    "Poisoned packets detected and dropped")

/// machine.*: packet and event counts of one simulation.
#define DFDB_MACHINE_COUNTERS(X)                                              \
  X(instruction_packets, "instruction_packets", kCount,                       \
    "Instruction packets sent IC to IP")                                      \
  X(result_packets, "result_packets", kCount, "Result packets sent IP to IC") \
  X(control_packets, "control_packets", kCount, "Control packets on a ring")  \
  X(broadcasts, "broadcasts", kCount, "Inner pages broadcast to many IPs")    \
  X(direct_routes, "direct_routes", kCount,                                   \
    "Result pages routed IP to IP without an IC")                             \
  X(events, "events", kCount, "Simulation events processed")

/// machine.*_bytes: bytes crossing each level of the machine (Figure 4.2's
/// y-axis is these totals divided by the execution time).
#define DFDB_LEVEL_BYTES(X)                                                   \
  X(outer_ring, "outer_ring_bytes", kBytes,                                   \
    "IC <-> IP instruction, result and control packets")                      \
  X(inner_ring, "inner_ring_bytes", kBytes, "MC <-> IC control")              \
  X(cache_to_ic, "cache_to_ic_bytes", kBytes, "Disk cache -> IC local memory") \
  X(ic_to_cache, "ic_to_cache_bytes", kBytes,                                 \
    "IC local memory -> disk cache (evictions)")                              \
  X(disk_read, "disk_read_bytes", kBytes, "Mass storage -> disk cache")       \
  X(disk_write, "disk_write_bytes", kBytes, "Disk cache -> mass storage")

/// machine.faults.*: injected faults and the recovery work they caused.
#define DFDB_MACHINE_FAULT_COUNTERS(X)                                        \
  X(injected, "faults.injected", kCount, "Faults that fired")                 \
  X(ip_kills, "faults.ip_kills", kCount, "IPs killed")                        \
  X(ic_failures, "faults.ic_failures", kCount, "ICs failed")                  \
  X(packets_dropped, "faults.packets_dropped", kCount, "Packets dropped")     \
  X(packets_corrupted, "faults.packets_corrupted", kCount,                    \
    "Packets corrupted")                                                      \
  X(cache_stalls, "faults.cache_stalls", kCount, "Disk-cache stalls")         \
  X(timeouts, "faults.timeouts", kCount, "IC acknowledgement timeouts")       \
  X(retries, "faults.retries", kCount, "Same-IP retransmissions")             \
  X(redispatches, "faults.redispatches", kCount,                              \
    "Units re-dispatched to survivors")                                       \
  X(instructions_rehomed, "faults.instructions_rehomed", kCount,              \
    "Instructions moved off a dead IC")                                       \
  X(retry_ns_lost, "faults.retry_ns_lost", kNs,                               \
    "Simulated time burned in retransmission backoff")                        \
  X(cache_stall_ns, "faults.cache_stall_ns", kNs,                             \
    "Total injected stall window")

/// pipeline.* (both backends): pipeline-fusion outcomes. Edges are counted
/// once per query when it is built; pages as they are handed over or
/// filtered.
#define DFDB_PIPELINE_COUNTERS(X)                                             \
  X(pipeline_fused_edges, "pipeline.fused_edges", kCount, "Plan edges fused") \
  X(pipeline_materialized_edges, "pipeline.materialized_edges", kCount,       \
    "Plan edges materialized")                                                \
  X(pipeline_pages_elided, "pipeline.pages_elided", kCount,                   \
    "Intermediate pages (machine: units) never built thanks to fusion")       \
  X(pipeline_fused_pages, "pipeline.fused_pages", kCount,                     \
    "Pages a folded filter ran on in staging (simulator only)")               \
  X(pipeline_runtime_fallbacks, "pipeline.runtime_fallbacks", kCount,         \
    "Edges marked fused that had to materialize")

/// kernel.* (both backends): compiled-vs-interpreted kernel split.
#define DFDB_KERNEL_COUNTERS(X)                                               \
  X(compiled_pages, "kernel.compiled_pages", kCount,                          \
    "Pages run by a compiled program")                                        \
  X(interpreted_pages, "kernel.interpreted_pages", kCount,                    \
    "Pages run through Expr::Eval")                                           \
  X(compile_fallbacks, "kernel.compile_fallbacks", kCount,                    \
    "Predicates that refused to compile")                                     \
  X(hash_joins, "kernel.hash_joins", kCount, "Page-pair joins on hashes")     \
  X(nested_joins, "kernel.nested_joins", kCount,                              \
    "Page-pair joins on nested loops")                                        \
  X(hash_build_collisions, "kernel.hash_build_collisions", kCount,            \
    "Build-side slot probes of the inner table, counted at every probe")

/// index.* (both backends): access-path pruning on marked scans.
#define DFDB_INDEX_COUNTERS(X)                                                \
  X(pages_pruned, "index.pages_pruned", kCount,                               \
    "Pages a marked scan skipped entirely")                                   \
  X(zonemap_hits, "index.zonemap_hits", kCount,                               \
    "Pages whose zone map cannot contain a match")                            \
  X(gridfile_probes, "index.gridfile_probes", kCount,                         \
    "Grid-file lookups, one per probed scan")                                 \
  X(fallback_scans, "index.fallback_scans", kCount,                           \
    "Marked scans that fell back to zone maps or a full scan")

/// pushdown.* (both backends): restricts run inside the storage hierarchy.
#define DFDB_PUSHDOWN_COUNTERS(X)                                             \
  X(pages_filtered, "pushdown.pages_filtered", kCount,                        \
    "Pages filtered at the level where they reside")                          \
  X(tuples_in, "pushdown.tuples_in", kCount, "Tuples scanned at the device")  \
  X(tuples_out, "pushdown.tuples_out", kCount,                                \
    "Tuples that survived and crossed a level")                               \
  X(bytes_elided, "pushdown.bytes_elided", kBytes,                            \
    "Bytes the filter kept from crossing cache -> local (or the rings)")      \
  X(fallbacks, "pushdown.fallbacks", kCount,                                  \
    "Marked scans that took the unfiltered path")

/// engine.sched.*: MC admission outcomes. Per-query snapshots carry the
/// query's own values (admitted/queued are then 0 or 1).
#define DFDB_SCHED_COUNTERS(X)                                                \
  X(admitted, "sched.admitted", kCount, "Queries admitted immediately")       \
  X(queued, "sched.queued", kCount, "Queries that waited in the MC queue")    \
  X(requeues, "sched.requeues", kCount, "Failed re-admission probes")         \
  X(queue_wait_ns, "sched.queue_wait_ns", kNs,                                \
    "Time spent waiting for admission; 0 when admitted at once")              \
  X(skips, "sched.skips", kCount, "Conflicting bypasses while waiting")

/// engine.mvcc.*: storage-wide MVCC state.
#define DFDB_MVCC_COUNTERS(X)                                                 \
  X(snapshots_open, "mvcc.snapshots_open", kGauge, "Live snapshots")          \
  X(snapshots_captured, "mvcc.snapshots_captured", kCount,                    \
    "Snapshots ever captured")                                                \
  X(versions_live, "mvcc.versions_live", kGauge,                              \
    "Version records across heap files")                                      \
  X(pages_copied, "mvcc.pages_copied", kCount, "Copy-on-write page rewrites") \
  X(gc_reclaimed, "mvcc.gc_reclaimed", kCount,                                \
    "Retired pages freed by version GC")                                      \
  X(commits, "mvcc.commits", kCount, "Versions installed")

/// storage.*: transfers across the engine's three-level hierarchy.
#define DFDB_BUFFER_COUNTERS(X)                                               \
  X(disk_read_bytes, "disk_read_bytes", kBytes, "Mass storage -> disk cache") \
  X(disk_write_bytes, "disk_write_bytes", kBytes,                             \
    "Disk cache -> mass storage")                                             \
  X(disk_reads, "disk_reads", kCount, "Pages read from mass storage")         \
  X(disk_writes, "disk_writes", kCount, "Pages written to mass storage")      \
  X(cache_read_bytes, "cache_read_bytes", kBytes,                             \
    "Disk cache -> local memory")                                             \
  X(cache_write_bytes, "cache_write_bytes", kBytes,                           \
    "Local memory -> disk cache")                                             \
  X(cache_reads, "cache_reads", kCount, "Pages read from the disk cache")     \
  X(cache_writes, "cache_writes", kCount, "Pages written to the disk cache")  \
  X(local_hits, "cache_hits", kCount,                                         \
    "Requests satisfied in local memory, without a transfer")

/// net.*: the host interface (net::Server), including the dist fragment
/// and exchange work it runs under net.exchange.*.
#define DFDB_NET_COUNTERS(X)                                                  \
  X(connections_accepted, "connections", kCount, "Connections accepted")      \
  X(connections_refused, "connections.refused", kCount,                       \
    "Connections refused")                                                    \
  X(requests, "requests", kCount, "Query requests received")                  \
  X(rejected, "rejected", kCount, "kRetryLater responses")                    \
  X(invalid_requests, "invalid_requests", kCount,                             \
    "Parse or analysis failures")                                             \
  X(protocol_errors, "protocol_errors", kCount,                               \
    "Corrupt frames (connection closed)")                                     \
  X(deadline_expired, "deadline_expired", kCount, "Requests past deadline")   \
  X(disconnects, "disconnects", kCount, "Connections closed by the client")   \
  X(orphaned_results, "orphaned_results", kCount,                             \
    "Completions with no client left")                                        \
  X(bytes_in, "bytes_in", kBytes, "Bytes received")                           \
  X(bytes_out, "bytes_out", kBytes, "Bytes sent")                             \
  X(pings, "pings", kCount, "Ping frames")                                    \
  X(fragments, "exchange.fragments", kCount, "kFragment frames accepted")     \
  X(fragment_errors, "exchange.fragment_errors", kCount,                      \
    "Fragments answered kError")                                              \
  X(exchange_batches_in, "exchange.batches_in", kCount, "Batches received")   \
  X(exchange_batches_out, "exchange.batches_out", kCount, "Batches sent")     \
  X(exchange_bytes_in, "exchange.bytes_in", kBytes,                           \
    "Tuple payload received")                                                 \
  X(exchange_bytes_out, "exchange.bytes_out", kBytes, "Tuple payload sent")   \
  X(exchange_credits_granted, "exchange.credits_granted", kCount,             \
    "Credits granted to senders")                                             \
  X(exchange_credit_stalls, "exchange.credit_stalls", kCount,                 \
    "Output waits on credit")                                                 \
  X(exchange_unknown, "exchange.unknown", kCount,                             \
    "Frames for no such exchange")                                            \
  X(exchange_eofs, "exchange.eofs", kCount, "End-of-stream frames")           \
  X(exchange_broadcast_batches, "exchange.broadcast_batches", kCount,         \
    "Batches sent to every consumer")

/// dist.*: the scale-out coordinator, over its lifetime.
#define DFDB_DIST_COUNTERS(X)                                                 \
  X(queries, "queries", kCount, "Queries executed")                           \
  X(fragments_dispatched, "fragments", kCount, "Fragments sent to workers")   \
  X(batches_routed, "batches_routed", kCount, "Exchange batches routed")      \
  X(bytes_shuffled, "bytes_shuffled", kBytes,                                 \
    "Tuple payload through the star")                                         \
  X(rows_returned, "rows_returned", kCount, "Result rows returned")           \
  X(repartitions, "repartitions", kCount, "kPartition streams planned")       \
  X(broadcasts, "broadcasts", kCount, "kBroadcast streams planned")           \
  X(gathers, "gathers", kCount, "Non-root kGather streams")                   \
  X(credit_waits, "credit_waits", kCount, "Sender stalls on input credit")    \
  X(errors, "errors", kCount, "Failed queries")                               \
  X(shuffle_micros, "shuffle_micros", kCount,                                 \
    "Wall microseconds spent routing shuffles")

// ---------------------------------------------------------------------------
// Generic helpers over any plain counter struct
// ---------------------------------------------------------------------------

/// One row of a plain counter struct \p S.
template <typename S>
struct CounterField {
  uint64_t S::*member;
  std::string_view key;
  CounterKind kind;
};

/// A struct declared with DFDB_PLAIN_COUNTERS. A struct derived from one
/// (ExecStats, MachineReport) is not: the helpers would miss its other
/// families.
template <typename S>
concept CounterStruct =
    std::same_as<typename decltype(S::Fields())::value_type, CounterField<S>>;

namespace counters_detail {
void Export(std::string_view prefix, std::string_view key, uint64_t value,
            obs::MetricsRegistry* registry);
/// Appends ` key=value` (bytes and ns in human units), opening a new
/// ` | `-separated group when \p first.
void Append(std::string_view key, CounterKind kind, uint64_t value,
            bool first, std::string* out);
}  // namespace counters_detail

/// Adds \p b to \p a row by row; gauges keep \p a's value.
template <CounterStruct S>
S& operator+=(S& a, const S& b) {
  for (const auto& f : S::Fields()) {
    if (f.kind != CounterKind::kGauge) a.*f.member += b.*f.member;
  }
  return a;
}

/// Subtracts \p b from \p a row by row (a delta since \p b); gauges keep
/// \p a's value.
template <CounterStruct S>
S& operator-=(S& a, const S& b) {
  for (const auto& f : S::Fields()) {
    if (f.kind != CounterKind::kGauge) a.*f.member -= b.*f.member;
  }
  return a;
}

/// Registers every row of every family in \p families as `prefix + key`.
template <CounterStruct... S>
void ExportCounters(obs::MetricsRegistry* registry, std::string_view prefix,
                    const S&... families) {
  auto one = [&](const auto& family) {
    for (const auto& f : family.Fields()) {
      counters_detail::Export(prefix, f.key, family.*f.member, registry);
    }
  };
  (one(families), ...);
}

/// Appends ` key=value` to \p out for every non-zero row. A new family or
/// key group (the part of the key before its first dot) opens with ` | `,
/// except at the very start of \p out.
template <CounterStruct... S>
void AppendCounters(std::string* out, const S&... families) {
  auto one = [&](const auto& family) {
    std::string_view group = ".";  // No key's group: the first row opens one.
    for (const auto& f : family.Fields()) {
      if (family.*f.member == 0) continue;
      // npos + 1 wraps to 0: a key without a dot has the empty group.
      const std::string_view g = f.key.substr(0, f.key.find('.') + 1);
      counters_detail::Append(f.key, f.kind, family.*f.member, g != group,
                              out);
      group = g;
    }
  };
  (one(families), ...);
}

// ---------------------------------------------------------------------------
// Struct generators
// ---------------------------------------------------------------------------

#define DFDB_COUNTER_PLAIN_MEMBER_(member, key, kind, help) uint64_t member = 0;
#define DFDB_COUNTER_ATOMIC_MEMBER_(member, key, kind, help) \
  std::atomic<uint64_t> member{0};
#define DFDB_COUNTER_FIELD_(member, key, kind, help) \
  CounterField<Self>{&Self::member, key, CounterKind::kind},
#define DFDB_COUNTER_LOAD_(member, key, kind, help) out.member = member.load();
#define DFDB_COUNTER_ADD_(member, key, kind, help) \
  member.fetch_add(in.member, std::memory_order_relaxed);

/// Members of a plain counter struct: one uint64_t per row of \p LIST, plus
/// the row table the generic helpers walk.
#define DFDB_PLAIN_COUNTERS(Name, LIST)                                  \
  LIST(DFDB_COUNTER_PLAIN_MEMBER_)                                       \
  static constexpr auto Fields() {                                       \
    using Self = Name;                                                   \
    return std::array{LIST(DFDB_COUNTER_FIELD_)};                        \
  }                                                                      \
  bool any() const {                                                     \
    for (const auto& f : Fields()) {                                     \
      if (this->*f.member != 0) return true;                             \
    }                                                                    \
    return false;                                                        \
  }                                                                      \
  std::string ToString() const {                                         \
    std::string out;                                                     \
    AppendCounters(&out, *this);                                         \
    return out;                                                          \
  }

/// Members of the atomic twin of plain struct \p Plain: one
/// std::atomic<uint64_t> per row (bumped with relaxed fetch_add),
/// Snapshot() to load them all, and Add() to fold in a plain batch.
#define DFDB_ATOMIC_COUNTERS(Plain, LIST)                                \
  LIST(DFDB_COUNTER_ATOMIC_MEMBER_)                                      \
  Plain Snapshot() const {                                               \
    Plain out;                                                           \
    LIST(DFDB_COUNTER_LOAD_)                                             \
    return out;                                                          \
  }                                                                      \
  void Add(const Plain& in) { LIST(DFDB_COUNTER_ADD_) }

// ---------------------------------------------------------------------------
// The counter structs
// ---------------------------------------------------------------------------

#define DFDB_EXEC_COUNTERS(X) DFDB_ENGINE_COUNTERS(X) DFDB_PIPELINE_COUNTERS(X)

/// The engine.* rows ExecStats holds as direct members.
struct ExecCounters {
  DFDB_PLAIN_COUNTERS(ExecCounters, DFDB_EXEC_COUNTERS)
};
/// Their atomic twin, the base of the engine's EngineCounters.
struct AtomicExecCounters {
  DFDB_ATOMIC_COUNTERS(ExecCounters, DFDB_EXEC_COUNTERS)
};

#define DFDB_MACHINE_REPORT_COUNTERS(X) \
  DFDB_MACHINE_COUNTERS(X) DFDB_PIPELINE_COUNTERS(X)

/// The machine.* rows MachineReport holds as direct members.
struct MachineCounters {
  DFDB_PLAIN_COUNTERS(MachineCounters, DFDB_MACHINE_REPORT_COUNTERS)
};

/// Bytes crossing each level of the machine (MachineReport::bytes).
struct LevelBytes {
  DFDB_PLAIN_COUNTERS(LevelBytes, DFDB_LEVEL_BYTES)
};

/// Every recovery event of a simulation (MachineReport::faults).
struct FaultStats {
  DFDB_PLAIN_COUNTERS(FaultStats, DFDB_MACHINE_FAULT_COUNTERS)
};

struct KernelStatsSnapshot {
  DFDB_PLAIN_COUNTERS(KernelStatsSnapshot, DFDB_KERNEL_COUNTERS)
};
/// Updated with relaxed atomics from concurrent workers (and the kernels).
struct KernelStats {
  DFDB_ATOMIC_COUNTERS(KernelStatsSnapshot, DFDB_KERNEL_COUNTERS)
};

struct IndexPruneCounters {
  DFDB_PLAIN_COUNTERS(IndexPruneCounters, DFDB_INDEX_COUNTERS)
};
/// Many workers prune scans of one query concurrently.
struct IndexPruneStats {
  DFDB_ATOMIC_COUNTERS(IndexPruneCounters, DFDB_INDEX_COUNTERS)
};

struct PushdownCounters {
  DFDB_PLAIN_COUNTERS(PushdownCounters, DFDB_PUSHDOWN_COUNTERS)
};
/// Workers fold each pushed-down read's PushdownCounters in with Add().
struct PushdownStats {
  DFDB_ATOMIC_COUNTERS(PushdownCounters, DFDB_PUSHDOWN_COUNTERS)
};

/// ExecStats::sched.
struct SchedCounters {
  DFDB_PLAIN_COUNTERS(SchedCounters, DFDB_SCHED_COUNTERS)
};

/// StorageEngine::mvcc_stats() and ExecStats::mvcc.
struct MvccStats {
  DFDB_PLAIN_COUNTERS(MvccStats, DFDB_MVCC_COUNTERS)
};

/// BufferManager::stats() and ExecStats::buffer.
struct BufferStats {
  DFDB_PLAIN_COUNTERS(BufferStats, DFDB_BUFFER_COUNTERS)
};

}  // namespace dfdb

#endif  // DFDB_OBS_COUNTERS_H_
