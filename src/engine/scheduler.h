/// \file scheduler.h
/// \brief The resident multi-query scheduler (the paper's master controller).
///
/// Section 4.0, requirement 1: "a database machine ... must be able to
/// support the simultaneous execution of multiple queries from several
/// users". The Scheduler realizes the MC role for the threads engine as a
/// long-lived object: one persistent pool of worker threads (the IP pool),
/// an admission queue in front of the ConflictManager's relation-level lock
/// table, and Submit() callable from any thread. Queries whose read/write
/// sets conflict with a running query wait in an MC queue and are
/// re-admitted when a conflicting query completes — FIFO, with an
/// anti-starvation rule so a stream of readers cannot park a writer forever
/// (see AdmissionQueue in concurrency.h).
///
/// Unlike Executor::Execute(), which historically built and tore down a
/// whole worker pool per call, a Scheduler keeps its workers resident:
/// concurrent users genuinely share the IP pool, and worker threads
/// multiplex task queues across every admitted query. Executor::Execute and
/// Executor::ExecuteBatch are now thin compatibility wrappers over a
/// private, per-call Scheduler.

#ifndef DFDB_ENGINE_SCHEDULER_H_
#define DFDB_ENGINE_SCHEDULER_H_

#include <memory>

#include "common/macros.h"
#include "common/statusor.h"
#include "engine/engine_stats.h"
#include "engine/exec_options.h"
#include "engine/query_result.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ra/plan.h"
#include "storage/storage_engine.h"

namespace dfdb {

namespace internal {
class SchedulerImpl;
struct QueryState;
}  // namespace internal

/// \brief Concurrency-control regime of one scheduler.
enum class ConcurrencyMode {
  /// MVCC snapshot reads (the default): every query executes against an
  /// immutable Snapshot stamped at admission, read-only queries are
  /// admitted immediately (they never queue and never skip), and the
  /// admission queue arbitrates writer–writer conflicts only. Snapshot
  /// timestamps derive from admission order, not wall clock, so deferred
  /// single-worker replay stays deterministic.
  kSnapshot,
  /// Legacy barrier mode: relation-granularity S/X admission — every
  /// reader queues behind every writer of a shared relation. Admission is
  /// the only difference: queries still read the snapshot stamped at
  /// admission, and writers commit or roll back at completion. Kept for
  /// the reader/writer bench comparison and as a semantics reference.
  kBarrier,
};

/// \brief Configuration of one resident scheduler.
struct SchedulerOptions {
  /// Engine knobs: pool size, granularity, buffer hierarchy, fault plan,
  /// tracing. The pool is created once and shared by every submitted query.
  ExecOptions exec;

  /// Anti-starvation bound for the MC admission queue: once a waiting query
  /// has been bypassed by this many conflicting later admissions, no later
  /// query that conflicts with it may be admitted ahead of it (see
  /// AdmissionQueue).
  int max_admission_skips = 8;

  /// When set, worker threads are not started until Start() is called.
  /// Every Submit() before Start() only enqueues work, so a single-worker
  /// scheduler replays a batch with a deterministic schedule — the property
  /// the byte-identical trace-export tests (and the Executor compatibility
  /// wrappers) rely on.
  bool defer_worker_start = false;

  /// Snapshot reads vs legacy barrier admission (see ConcurrencyMode).
  ConcurrencyMode concurrency = ConcurrencyMode::kSnapshot;
};

/// \brief Future-like handle to one submitted query.
///
/// Cheap to copy (shared state). Wait() blocks until the query completes
/// and moves the QueryResult — carrying its per-query ExecStats and trace —
/// out; a second Wait() returns FailedPrecondition. Queries cancelled by
/// Shutdown() yield Status::Cancelled.
class QueryHandle {
 public:
  QueryHandle() = default;

  bool valid() const { return state_ != nullptr; }

  /// Scheduler-assigned query id (also used in error contexts).
  uint64_t qid() const;

  /// True once the query completed, failed, or was cancelled.
  bool Done() const;

  /// Blocks until completion and moves the result out.
  StatusOr<QueryResult> Wait();

  /// Nanoseconds this query spent in the MC admission queue (0 when it was
  /// admitted immediately; also readable from stats().sched.queue_wait_ns).
  uint64_t queue_wait_ns() const;

 private:
  friend class internal::SchedulerImpl;
  explicit QueryHandle(std::shared_ptr<internal::QueryState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::QueryState> state_;
};

/// \brief Long-lived master controller: persistent worker pool + admission
/// queue. Thread-safe: Submit() may be called concurrently from any thread.
class Scheduler {
 public:
  Scheduler(StorageEngine* storage, SchedulerOptions options);
  /// Convenience: default scheduling knobs, workers started immediately.
  Scheduler(StorageEngine* storage, ExecOptions exec_options);
  ~Scheduler();
  DFDB_DISALLOW_COPY(Scheduler);

  const SchedulerOptions& options() const;

  /// Clones, analyzes, and admits (or queues) one query. Returns an error
  /// only for plans that fail analysis or after Shutdown(); execution
  /// errors are reported through QueryHandle::Wait().
  StatusOr<QueryHandle> Submit(const PlanNode& plan);

  /// Starts the worker pool. Idempotent; only meaningful with
  /// SchedulerOptions::defer_worker_start.
  void Start();

  /// Stops accepting queries, fails every still-queued query with
  /// Status::Cancelled, waits for running queries to drain, and joins the
  /// worker pool. If the pool was never started, admitted-but-unexecuted
  /// queries are cancelled as well (nothing ran, so nothing was mutated).
  /// Idempotent; also called by the destructor.
  void Shutdown();

  /// Lifetime aggregate across completed queries plus pool-wide counters
  /// (faults, buffer-hierarchy traffic) and the engine.sched.* totals.
  /// wall_seconds is the scheduler's lifetime so far.
  ExecStats AggregateStats() const;

  /// Registers the live engine.sched.* counters and gauges (admitted,
  /// queued, queue-wait, requeues, pool occupancy) into \p registry.
  void SnapshotMetrics(obs::MetricsRegistry* registry) const;

  /// Merges and returns the run trace. Call only after Shutdown() (workers
  /// must have quiesced); nullptr when ExecOptions::enable_trace was unset.
  std::shared_ptr<const obs::Trace> FinishTrace();

 private:
  std::unique_ptr<internal::SchedulerImpl> impl_;
};

}  // namespace dfdb

#endif  // DFDB_ENGINE_SCHEDULER_H_
