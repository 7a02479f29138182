/// \file scheduler.cc
/// \brief Resident scheduler: persistent worker pool, MC admission queue,
/// and the dataflow execution core (moved here from executor.cc, which is
/// now a thin compatibility wrapper).

#include "engine/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "common/blocking_queue.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "engine/concurrency.h"
#include "index/access_path.h"
#include "obs/trace.h"
#include "operators/kernels.h"
#include "operators/node_program.h"
#include "ra/analyzer.h"
#include "ra/optimizer.h"
#include "storage/buffer_manager.h"
#include "storage/page_sink.h"

namespace dfdb {
namespace internal {

class SchedulerImpl;

/// A page travelling between nodes: the live pointer plus its id in the
/// buffer hierarchy, against which the consumer charges its reads (the
/// page itself never enters the store, and its frame returns to the pool
/// once the last task that reads it retires). Pages on fused edges are
/// delivered `direct`: they never enter the hierarchy, so reading them
/// charges nothing.
struct PendingPage {
  PagePtr page;
  PageId id;
  bool direct = false;
};

/// An inner page at a join, with the hash table every outer task probes
/// (null when the join runs nested loops).
struct InnerPage {
  PendingPage page;
  std::unique_ptr<const JoinTable> table;
};

/// One outer page's join progress: the paper's IRC vector collapses to a
/// cursor because inner pages accumulate in arrival order.
struct OuterWork {
  PendingPage outer;
  size_t cursor = 0;
  bool first = true;
};

struct QueryRuntime;

/// \brief Runtime state of one plan node (one "instruction").
struct NodeState {
  SchedulerImpl* impl = nullptr;
  QueryRuntime* query = nullptr;
  const PlanNode* node = nullptr;
  NodeState* parent = nullptr;  // Null for the root.
  int parent_slot = 0;
  /// Packs this node's output into unit pages for the consumer (or the
  /// query result, at the root).
  std::optional<PagePacker> out;

  // Static (post-analysis) configuration.
  int num_inputs = 0;
  /// What the node computes (null only when it failed to build, which
  /// failed the query).
  std::unique_ptr<NodeProgram> program;
  /// Near-data pushdown (kScan on a marked plan): the consuming restrict's
  /// predicate, compiled against the scan schema by OpenScan at launch, run
  /// by the buffer hierarchy during the cache -> local transfer so only
  /// survivors ride the edge. Empty = raw path.
  std::optional<CompiledPredicate> pushdown_pred;
  /// Relation granularity: no operand task runs before every input has
  /// closed (Section 3.1). False for leaves and under page granularity.
  bool relation_barrier = false;

  std::mutex mu;
  std::vector<bool> input_closed;
  /// Tasks queued or running, in all and per input slot (a leaf counts its
  /// driver in `pending`).
  std::vector<uint64_t> pending_slot;
  uint64_t pending = 0;
  /// Per input slot, in arrival order: the operand pages that reached the
  /// node before their slot may run (SlotMayRunLocked).
  std::vector<std::vector<PendingPage>> held;
  bool finalize_claimed = false;
  /// Leaves (scan/delete): set when the driver finished.
  bool source_done = false;

  // kJoin. Inner pages and their tables live until finalize, in a deque so
  // outer tasks can hold pointers to entries outside the lock while later
  // pages are appended. Parked outer tasks wait for more inner pages.
  std::deque<InnerPage> inner_pages;
  std::vector<OuterWork> parked;

  // --- producer-side events (called by the child's packer wiring) ---
  void OnPage(int slot, PendingPage p);
  void OnClose(int slot);
  /// A join's inner page: builds its hash table, makes it visible, and
  /// wakes every parked outer task.
  void AddInnerPage(PendingPage p);

  // --- task bodies ---
  void RunUnaryTask(int slot, PendingPage p);
  void RunJoinOuter(OuterWork w);
  /// The page \p p carries. On a materialized edge, reading it charges
  /// the buffer hierarchy's transfer against its id and, when
  /// \p count_packet, one packet; on a fused edge it charges nothing.
  const Page& FetchOperand(const PendingPage& p, bool count_packet);
  /// Counts one instruction packet carrying \p payload_bytes of operand
  /// across the arbitration network.
  void CountPacket(uint64_t payload_bytes);

  // --- scheduling helpers ---
  /// True when pages of input \p slot may run now: under relation
  /// granularity once every input has closed, and for a difference's left
  /// slot once the right slot has closed, holds nothing and has no task
  /// pending (set difference is a barrier on its subtrahend). Stays true
  /// once true.
  bool SlotMayRunLocked(int slot) const;
  void ClaimLocked(int slot, uint64_t n) {
    pending += n;
    pending_slot[static_cast<size_t>(slot)] += n;
  }
  void RetireLocked(int slot) {
    --pending;
    --pending_slot[static_cast<size_t>(slot)];
  }
  /// Claims and moves out the held pages of every slot that may now run,
  /// in slot order. Called under `mu` wherever an input closes or a unary
  /// task retires, so no page stays held once its slot may run.
  std::vector<std::pair<int, PendingPage>> TakeRunnableLocked();
  /// Enqueues the task of one claimed operand page.
  void Dispatch(int slot, PendingPage p);
  /// Re-enqueues claimed outer tasks that were parked.
  void Resume(std::vector<OuterWork> wake);
  void TryFinalize();
  void RunFinalizeAndClose();
};

/// \brief Shared completion state between a QueryHandle and the scheduler.
struct QueryState {
  uint64_t qid = 0;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool taken = false;
  Status status = Status::OK();
  QueryResult result;
  std::atomic<uint64_t> queue_wait_ns{0};
};

/// \brief Per-query execution context, owned by the scheduler from Submit
/// until it is reaped after completion.
struct QueryRuntime {
  uint64_t qid = 0;
  size_t batch_index = 0;
  std::unique_ptr<PlanNode> plan;
  QueryAnalysis analysis;
  std::vector<std::unique_ptr<NodeState>> nodes;
  NodeState* root = nullptr;
  std::shared_ptr<QueryState> state;

  /// Per-query work counters: attributing packets/bytes to the query that
  /// caused them is what lets stats ride on the QueryResult. Pool-wide
  /// effects (faults, buffer traffic) stay on the SchedulerImpl.
  EngineCounters counters;

  std::chrono::steady_clock::time_point submitted_at{};
  std::chrono::steady_clock::time_point completed_at{};
  uint64_t queue_wait_ns = 0;     ///< Set at admission (0 = immediate).
  uint64_t failed_probes = 0;     ///< Failed re-admission probes while queued.
  uint64_t sched_skips = 0;       ///< Conflicting bypasses while queued.
  bool was_queued = false;
  /// Read-only query admitted around the MC queue (snapshot mode): it holds
  /// no locks, so completion must not probe the admission queue.
  bool bypassed_admission = false;

  /// The immutable point-in-time view this query's scans execute against,
  /// stamped at admission in both concurrency modes. Released when the
  /// runtime is reaped — outside admit_mu_ — which is what lets version GC
  /// key off "no live snapshot can see it".
  Snapshot snapshot;

  /// Completion/reaping protocol: `in_flight` counts the frames that may
  /// still touch this runtime, plus one "completion reference" held from
  /// construction until OnQueryDone drops it (after setting `completed`).
  /// The count therefore cannot reach zero before the query completes, and
  /// whichever frame's decrement reaches zero owns the runtime exclusively
  /// and must reap it. No thread may touch the runtime after its own
  /// decrement unless that decrement was the last — reading any member
  /// (even an atomic) after releasing the reference races with the reaper.
  std::atomic<bool> completed{false};
  std::atomic<int64_t> in_flight{1};

  std::mutex result_mu;
  QueryResult result;

  std::atomic<bool> failed{false};
  std::mutex err_mu;
  Status error;

  std::mutex interm_mu;
  std::vector<PageId> intermediates;

  void Fail(const Status& status) {
    bool expected = false;
    if (failed.compare_exchange_strong(expected, true)) {
      std::lock_guard<std::mutex> lock(err_mu);
      error = status;
    }
  }

  void RecordIntermediate(PageId id) {
    std::lock_guard<std::mutex> lock(interm_mu);
    intermediates.push_back(id);
  }
};

/// \brief The resident scheduler: one persistent worker pool, one buffer
/// hierarchy, one admission queue — shared by every submitted query.
class SchedulerImpl {
 public:
  SchedulerImpl(StorageEngine* storage, SchedulerOptions options)
      : storage_(storage),
        options_(std::move(options)),
        buffer_(&storage->page_store(), options_.exec.local_memory_pages,
                options_.exec.disk_cache_pages),
        trace_(options_.exec.enable_trace),
        admission_(options_.max_admission_skips) {
    DFDB_CHECK(storage != nullptr);
    DFDB_CHECK(options_.exec.num_processors >= 1);
    DFDB_CHECK(options_.exec.memory_cells_per_processor >= 1);
    run_start_ = std::chrono::steady_clock::now();
    mvcc_baseline_ = storage->mvcc_stats();
    // Poisoned packets (corrupted on the wire) are injected once, ahead of
    // any query's tasks: workers detect the bad checksum and drop them.
    for (int i = 0; i < std::max(0, options_.exec.fault_plan.poison_packets);
         ++i) {
      counters_.faults_injected.fetch_add(1, std::memory_order_relaxed);
      RecordTrace(obs::TraceEventKind::kFaultInjected, nullptr, -1, -1, 0,
                  "poison-packet");
      queue_.Push(Task{nullptr, [this] {
                         counters_.poison_dropped.fetch_add(
                             1, std::memory_order_relaxed);
                         RecordTrace(obs::TraceEventKind::kFaultRecovered,
                                     nullptr, -1, -1, 0, "poison-dropped");
                       }});
    }
    if (!options_.defer_worker_start) Start();
  }

  ~SchedulerImpl() { Shutdown(); }

  const SchedulerOptions& options() const { return options_; }
  const ExecOptions& opts() const { return options_.exec; }

  StatusOr<QueryHandle> Submit(const PlanNode& plan);
  void Start();
  void Shutdown();
  ExecStats AggregateStats() const;
  void SnapshotMetrics(obs::MetricsRegistry* registry) const;

  std::shared_ptr<const obs::Trace> FinishTrace() {
    DFDB_CHECK(workers_joined())
        << "FinishTrace requires Shutdown() (workers must have quiesced)";
    if (finished_trace_ == nullptr) finished_trace_ = trace_.Finish();
    return finished_trace_;
  }

  /// One unit of pool work, tagged with the query it belongs to (null for
  /// pool-level work such as poison packets) so workers can account
  /// per-query in-flight execution for completion-safe reaping.
  struct Task {
    QueryRuntime* query = nullptr;
    std::function<void()> fn;
  };

  void Dispatch(QueryRuntime* q, std::function<void()> fn) {
    queue_.Push(Task{q, std::move(fn)});
  }

  /// Dispatches an enabled instruction packet. The packet occupies a memory
  /// cell from dispatch until a processor picks it up ("As soon as all the
  /// required data is present, the contents of the cell are sent to some
  /// processor for execution. This frees the cell", Section 2.2).
  void DispatchPacket(QueryRuntime* q, std::function<void()> fn) {
    enabled_packets_.fetch_add(1, std::memory_order_relaxed);
    queue_.Push(Task{q, [this, fn = std::move(fn)] {
                       enabled_packets_.fetch_sub(1,
                                                  std::memory_order_relaxed);
                       fn();
                     }});
  }

  /// True while every memory cell is occupied by an enabled packet; scan
  /// sources yield instead of producing more operands.
  bool ThrottleExceeded() const {
    return enabled_packets_.load(std::memory_order_relaxed) >=
           static_cast<size_t>(opts().num_processors) *
               static_cast<size_t>(opts().memory_cells_per_processor);
  }

  BufferManager* buffer() { return &buffer_; }

  /// Steady-clock nanoseconds since the scheduler started (trace
  /// timestamps).
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - run_start_)
        .count();
  }

  bool trace_enabled() const { return trace_.enabled(); }

  /// Records one trace event; no-op (one branch) when tracing is off.
  /// Events are keyed by submission index, not qid, so two
  /// identically-seeded runs produce identical traces.
  void RecordTrace(obs::TraceEventKind kind, const QueryRuntime* q, int32_t a,
                   int32_t b, uint64_t bytes, const char* detail) {
    if (!trace_.enabled()) return;
    trace_.Record(kind, q != nullptr ? q->batch_index : 0, a, b, bytes,
                  detail, NowNs());
  }

  /// Called when the root node closes its output.
  void OnQueryDone(QueryRuntime* q);

  /// Scan driver step; re-dispatches itself page by page.
  void ScanStep(NodeState* node, std::shared_ptr<std::vector<PageId>> ids,
                size_t idx);
  void DeleteDriver(NodeState* node);

 private:
  StatusOr<std::unique_ptr<QueryRuntime>> Prepare(const PlanNode& plan,
                                                  size_t batch_index);
  NodeState* BuildNode(const PlanNode* n, NodeState* parent, int slot,
                       QueryRuntime* q);
  /// True when the plan marks the edge \p producer -> \p consumer fused and
  /// the safety conditions hold. A marked edge the safety conditions reject
  /// is recorded as a runtime fallback.
  bool EdgeFused(const PlanNode& producer, const PlanNode& consumer,
                 QueryRuntime* q);
  /// Enqueues every source-driver task of \p q as one atomic batch. The
  /// caller must hold an `in_flight` reference on \p q (see MaybeReap).
  void LaunchQuery(QueryRuntime* q);
  /// At admission, in both concurrency modes (admit_mu_ held): publishes
  /// committed state the query is entitled to see, captures its snapshot,
  /// and registers its write ownership. Because admissions are serialized
  /// under admit_mu_, snapshot timestamps derive from admission order — the
  /// deterministic-replay property.
  void StampSnapshotLocked(QueryRuntime* q);
  bool snapshot_mode() const {
    return options_.concurrency == ConcurrencyMode::kSnapshot;
  }
  /// Storage-wide MVCC stats attributed to this scheduler: monotone
  /// counters are reported as deltas since construction (so re-running an
  /// identical batch on warm storage exports identical counters), gauges
  /// (snapshots_open, versions_live) stay absolute.
  MvccStats MvccDelta() const {
    MvccStats mv = storage_->mvcc_stats();
    mv -= mvcc_baseline_;
    return mv;
  }
  /// Scheduler-wide admission totals (under admit_mu_).
  SchedCounters SchedTotalsLocked() const {
    SchedCounters s;
    s.admitted = totals_.admitted_immediately;
    s.queued = totals_.queued;
    s.requeues = admission_.requeue_failures();
    s.queue_wait_ns = totals_.queue_wait_ns;
    s.skips = admission_.total_skips();
    return s;
  }
  /// Builds the per-query ExecStats snapshot and fulfills the handle.
  void FulfillLocked(QueryRuntime* q);
  /// Destroys a completed query's runtime once no worker frame can still
  /// reference its node graph.
  void MaybeReap(QueryRuntime* q);
  void WorkerLoop(int worker_index);

  bool workers_joined() const {
    std::lock_guard<std::mutex> lock(admit_mu_);
    return shutdown_complete_;
  }

  StorageEngine* storage_;
  const SchedulerOptions options_;
  BufferManager buffer_;
  EngineCounters counters_;
  obs::TraceRecorder trace_;
  std::shared_ptr<const obs::Trace> finished_trace_;
  std::chrono::steady_clock::time_point run_start_{};
  BlockingQueue<Task> queue_;
  std::atomic<size_t> enabled_packets_{0};
  std::atomic<int> busy_workers_{0};
  std::atomic<int> peak_busy_workers_{0};
  /// Tasks claimed by the whole pool (EngineFaultPlan's abandon point).
  std::atomic<uint64_t> claimed_tasks_{0};

  /// Taken for the full duration of Shutdown(); never taken under
  /// admit_mu_ (Shutdown acquires admit_mu_ inside it, not vice versa).
  std::mutex shutdown_serial_mu_;
  mutable std::mutex admit_mu_;
  std::condition_variable drain_cv_;
  AdmissionQueue admission_;
  std::map<uint64_t, std::unique_ptr<QueryRuntime>> runtimes_;
  uint64_t next_qid_ = 1;
  uint64_t next_batch_index_ = 0;
  int active_queries_ = 0;
  /// Relation -> qid of the admitted writer mutating it (under admit_mu_).
  /// StampSnapshotLocked must not commit a relation another writer still
  /// owns — its uncommitted head is private until that writer completes.
  std::map<std::string, uint64_t> writing_relations_;
  /// Storage MVCC counters at construction (see MvccDelta).
  MvccStats mvcc_baseline_;
  bool started_ = false;
  bool shutting_down_ = false;
  bool shutdown_complete_ = false;
  std::vector<std::thread> workers_;

  // Lifetime totals (under admit_mu_), accumulated as queries retire.
  struct SchedTotals {
    uint64_t submitted = 0;
    uint64_t admitted_immediately = 0;
    uint64_t queued = 0;
    uint64_t completed = 0;
    uint64_t cancelled = 0;
    uint64_t queue_wait_ns = 0;
    ExecStats work;  // Summed per-query work counters of completed queries.
  } totals_;
};

namespace {

/// PushdownFilter adapter over the compiled restrict page kernel. It
/// counts no kernel.* rows: the consuming restrict counts its own pages.
class CompiledFilter final : public PushdownFilter {
 public:
  explicit CompiledFilter(const CompiledPredicate* pred) : pred_(pred) {}
  Status Filter(const Page& page, PageSink* sink) const override {
    return RestrictPage(*pred_, page, sink);
  }

 private:
  const CompiledPredicate* pred_;
};

/// What a worker reuses from task to task: the writer its kernels emit
/// through, checked out to the output packer of whichever node the task
/// runs, and the key hashes of the outer page its join task probes with. A
/// worker runs one task at a time, so neither is shared.
struct WorkerScratch {
  PagePacker::Writer writer;
  JoinScratch join;
};

WorkerScratch& ThisWorker() {
  thread_local WorkerScratch scratch;
  return scratch;
}

/// Scoped in-flight reference: prevents a query's runtime from being reaped
/// while the holder's frames may still touch its node graph.
class InFlightGuard {
 public:
  explicit InFlightGuard(QueryRuntime* q) : q_(q) {
    q_->in_flight.fetch_add(1, std::memory_order_acq_rel);
  }
  DFDB_DISALLOW_COPY(InFlightGuard);
  /// True when the guard released the last reference; the caller must then
  /// call SchedulerImpl::MaybeReap. Because the completion reference is
  /// dropped only after `completed` is set, reaching zero implies the query
  /// completed — no second load of the (possibly freed) runtime is needed.
  bool ReleaseNeedsReap() {
    return q_->in_flight.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }

 private:
  QueryRuntime* q_;
};

}  // namespace

// ---------------------------------------------------------------------------
// NodeState: dataflow event handling
// ---------------------------------------------------------------------------

void NodeState::OnPage(int slot, PendingPage p) {
  if (node->op == PlanOp::kJoin && slot == 1) {
    AddInnerPage(std::move(p));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    if (!SlotMayRunLocked(slot)) {
      // The instruction is not yet enabled for this operand.
      held[static_cast<size_t>(slot)].push_back(std::move(p));
      return;
    }
    ClaimLocked(slot, 1);
  }
  Dispatch(slot, std::move(p));
}

bool NodeState::SlotMayRunLocked(int slot) const {
  if (relation_barrier) {
    for (bool c : input_closed) {
      if (!c) return false;
    }
  }
  if (node->op == PlanOp::kDifference && slot == 0) {
    return input_closed[1] && held[1].empty() && pending_slot[1] == 0;
  }
  return true;
}

std::vector<std::pair<int, PendingPage>> NodeState::TakeRunnableLocked() {
  std::vector<std::pair<int, PendingPage>> release;
  for (int slot = 0; slot < num_inputs; ++slot) {
    std::vector<PendingPage>& waiting = held[static_cast<size_t>(slot)];
    if (waiting.empty() || !SlotMayRunLocked(slot)) continue;
    ClaimLocked(slot, waiting.size());
    for (PendingPage& p : waiting) release.emplace_back(slot, std::move(p));
    waiting.clear();
  }
  return release;
}

void NodeState::Dispatch(int slot, PendingPage p) {
  impl->RecordTrace(obs::TraceEventKind::kPacketEnqueued, query, node->id,
                    slot,
                    static_cast<uint64_t>(p.page->payload_bytes()), nullptr);
  if (node->op == PlanOp::kJoin) {
    OuterWork w;
    w.outer = std::move(p);
    impl->DispatchPacket(query, [this, w = std::move(w)]() mutable {
      RunJoinOuter(std::move(w));
    });
    return;
  }
  impl->DispatchPacket(query, [this, slot, p = std::move(p)]() mutable {
    RunUnaryTask(slot, std::move(p));
  });
}

void NodeState::Resume(std::vector<OuterWork> wake) {
  for (OuterWork& w : wake) {
    impl->DispatchPacket(query, [this, w = std::move(w)]() mutable {
      RunJoinOuter(std::move(w));
    });
  }
}

void NodeState::AddInnerPage(PendingPage p) {
  // Built once, outside the lock: every outer task probes this table.
  std::unique_ptr<const JoinTable> table;
  if (program != nullptr && !query->failed.load(std::memory_order_relaxed)) {
    table = program->BuildInnerTable(*p.page);
  }
  impl->RecordTrace(obs::TraceEventKind::kPacketEnqueued, query, node->id, 1,
                    static_cast<uint64_t>(p.page->payload_bytes()), nullptr);
  std::vector<OuterWork> wake;
  {
    // Inner pages never wait in `held`: an outer task that has not run yet
    // meets every inner page that arrived before it.
    std::lock_guard<std::mutex> lock(mu);
    inner_pages.push_back(InnerPage{std::move(p), std::move(table)});
    wake.swap(parked);
    ClaimLocked(0, wake.size());
  }
  Resume(std::move(wake));
}

void NodeState::OnClose(int slot) {
  std::vector<OuterWork> wake;
  std::vector<std::pair<int, PendingPage>> release;
  {
    std::lock_guard<std::mutex> lock(mu);
    input_closed[static_cast<size_t>(slot)] = true;
    if (node->op == PlanOp::kJoin && slot == 1) {
      // Inner relation complete: parked outers can now finish.
      wake.swap(parked);
      ClaimLocked(0, wake.size());
    }
    release = TakeRunnableLocked();
  }
  Resume(std::move(wake));
  for (auto& [s, page] : release) Dispatch(s, std::move(page));
  TryFinalize();
}

// ---------------------------------------------------------------------------
// NodeState: task bodies
// ---------------------------------------------------------------------------

void NodeState::RunUnaryTask(int slot, PendingPage p) {
  EngineCounters& ctr = query->counters;
  ctr.tasks_executed.fetch_add(1, std::memory_order_relaxed);
  impl->RecordTrace(obs::TraceEventKind::kTaskClaimed, query, node->id, slot,
                    0, nullptr);
  if (!query->failed.load(std::memory_order_relaxed)) {
    // The operand delivery that the arbitration path carries in the
    // paper's model. Pages on fused edges arrive live, with no packet or
    // arbitration traffic (the engine.pipeline.* counters record that
    // saving instead).
    const Page& page = FetchOperand(p, /*count_packet=*/true);
    impl->RecordTrace(obs::TraceEventKind::kPacketDelivered, query, node->id,
                      slot, static_cast<uint64_t>(page.payload_bytes()),
                      p.direct ? "fused-direct" : nullptr);

    // The kernel writes straight into an output frame the worker owns;
    // check-in delivers the pages it filled and returns the partial one
    // before the task retires.
    PagePacker::Writer& writer = ThisWorker().writer;
    Status s = out->CheckOut(&writer);
    if (s.ok()) s = program->Consume(slot, page, &writer, &ctr.kernel);
    writer.CheckIn();
    if (!s.ok()) query->Fail(s.WithContext("operator task"));
  }
  impl->RecordTrace(obs::TraceEventKind::kTaskExecuted, query, node->id, slot,
                    0, nullptr);
  std::vector<std::pair<int, PendingPage>> release;
  {
    std::lock_guard<std::mutex> lock(mu);
    RetireLocked(slot);
    release = TakeRunnableLocked();
  }
  for (auto& [s, page] : release) Dispatch(s, std::move(page));
  TryFinalize();
}

void NodeState::RunJoinOuter(OuterWork w) {
  EngineCounters& ctr = query->counters;
  ctr.tasks_executed.fetch_add(1, std::memory_order_relaxed);
  impl->RecordTrace(obs::TraceEventKind::kTaskClaimed, query, node->id, 0, 0,
                    w.first ? "join-outer" : "join-resume");
  // A resumed outer task counted its packet on the first pass.
  const Page* outer_page = query->failed.load(std::memory_order_relaxed)
                               ? nullptr
                               : &FetchOperand(w.outer, w.first);
  w.first = false;

  // The outer page's keys are hashed once, at the first inner page this
  // task meets.
  JoinScratch& keys = ThisWorker().join;
  PagePacker::Writer& writer = ThisWorker().writer;
  bool hashed = false;
  for (;;) {
    std::vector<const InnerPage*> batch;
    {
      std::lock_guard<std::mutex> lock(mu);
      for (size_t i = w.cursor; i < inner_pages.size(); ++i) {
        batch.push_back(&inner_pages[i]);
      }
    }
    if (batch.empty()) {
      // The partial frame goes back before this task parks or retires:
      // retiring may finalize the node, and its packer closes only once
      // every writer is in.
      writer.CheckIn();
      std::lock_guard<std::mutex> lock(mu);
      // Re-check under the lock: a page may have arrived since the
      // snapshot. inner_pages only grows, so cursor comparison is safe.
      if (w.cursor < inner_pages.size()) continue;
      // A join holds outer pages only until its inputs close (relation
      // granularity), so no retiring outer task releases any.
      RetireLocked(0);
      if (input_closed[1]) break;
      // Wait for more inner pages: park this outer ("scan its IRC vector
      // and request the pages it missed", Section 4.2).
      parked.push_back(std::move(w));
      // Finalization cannot trigger here (inner not closed), so return.
      return;
    }
    if (outer_page != nullptr &&
        !query->failed.load(std::memory_order_relaxed)) {
      if (!hashed) {
        program->HashOuter(*outer_page, &keys);
        hashed = true;
      }
      Status s = writer.checked_out() ? Status::OK() : out->CheckOut(&writer);
      for (const InnerPage* inner : batch) {
        // Each fetched inner page is one broadcast packet (Section 4.2); on
        // a fused inner edge every re-delivery is a fetch that never
        // happens.
        const Page& inner_page =
            FetchOperand(inner->page, /*count_packet=*/true);
        if (!inner->page.direct) {
          impl->RecordTrace(obs::TraceEventKind::kPacketDelivered, query,
                            node->id, 1,
                            static_cast<uint64_t>(inner_page.payload_bytes()),
                            "broadcast");
        }
        // The pages each page pair fills go to the consumer right after it.
        if (s.ok()) {
          s = program->Join(*outer_page, keys, inner_page, inner->table.get(),
                            &writer, &ctr.kernel);
        }
        writer.Deliver();
        if (!s.ok()) {
          query->Fail(s.WithContext("join task"));
          break;
        }
      }
    }
    w.cursor += batch.size();
  }
  impl->RecordTrace(obs::TraceEventKind::kTaskExecuted, query, node->id, 0, 0,
                    "join-outer");
  TryFinalize();
}

const Page& NodeState::FetchOperand(const PendingPage& p, bool count_packet) {
  if (!p.direct) {
    const int bytes = p.page->payload_bytes();
    impl->buffer()->Read(p.id, bytes);
    if (count_packet) CountPacket(static_cast<uint64_t>(bytes));
  }
  return *p.page;
}

void NodeState::CountPacket(uint64_t payload_bytes) {
  EngineCounters& ctr = query->counters;
  ctr.packets.fetch_add(1, std::memory_order_relaxed);
  ctr.arbitration_bytes.fetch_add(payload_bytes, std::memory_order_relaxed);
  ctr.overhead_bytes.fetch_add(
      static_cast<uint64_t>(impl->opts().packet_overhead_bytes),
      std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// NodeState: completion
// ---------------------------------------------------------------------------

void NodeState::TryFinalize() {
  {
    std::lock_guard<std::mutex> lock(mu);
    if (finalize_claimed) return;
    if (pending != 0) return;
    if (num_inputs == 0) {
      // Leaf (scan or delete): done when the driver retires.
      if (!source_done) return;
    } else {
      // Every input closed and nothing held. No join outer task is parked
      // either: the inner input's close resumed them, and none parks after.
      for (size_t i = 0; i < input_closed.size(); ++i) {
        if (!input_closed[i] || !held[i].empty()) return;
      }
    }
    finalize_claimed = true;
  }
  RunFinalizeAndClose();
}

void NodeState::RunFinalizeAndClose() {
  if (node->op == PlanOp::kJoin) {
    // No outer task is left to probe them.
    std::deque<InnerPage> drop;
    std::lock_guard<std::mutex> lock(mu);
    drop.swap(inner_pages);
  }
  if (!query->failed.load(std::memory_order_relaxed)) {
    // An aggregate emits its groups; an append or delete applies its
    // storage effect.
    Status s = program->Finish(&*out);
    if (s.ok()) s = program->ApplyEffect();
    if (!s.ok()) query->Fail(s.WithContext("finalize"));
  }
  // Closing seals the last partial page ahead of the close signal.
  Status close = out->Close();
  if (!close.ok()) query->Fail(close);
  if (parent != nullptr) {
    parent->OnClose(parent_slot);
  } else {
    impl->OnQueryDone(query);
  }
}

// ---------------------------------------------------------------------------
// SchedulerImpl: drivers
// ---------------------------------------------------------------------------

void SchedulerImpl::ScanStep(NodeState* node,
                             std::shared_ptr<std::vector<PageId>> ids,
                             size_t idx) {
  if (node->query->failed.load(std::memory_order_relaxed)) {
    idx = ids->size();  // Stop producing.
  }
  // Memory-cell throttle: sources yield while the packet backlog exceeds
  // cells-per-processor * processors (the paper's "two memory cells for
  // each processor" resource bound). A yield runs no step, so it is not
  // counted as a task.
  if (idx < ids->size() && ThrottleExceeded()) {
    node->query->counters.scan_throttle_yields.fetch_add(
        1, std::memory_order_relaxed);
    Dispatch(node->query, [this, node, ids, idx] { ScanStep(node, ids, idx); });
    std::this_thread::yield();
    return;
  }
  node->query->counters.tasks_executed.fetch_add(1, std::memory_order_relaxed);
  if (idx >= ids->size()) {
    {
      std::lock_guard<std::mutex> lock(node->mu);
      node->source_done = true;
      --node->pending;
    }
    node->TryFinalize();
    return;
  }
  if (node->pushdown_pred.has_value()) {
    // Pushdown path: the compiled restrict runs where the page lives and
    // writes survivors straight into the scan's output frames, so the
    // consumer's operand fetches (arbitration traffic) shrink with the
    // selectivity.
    CompiledFilter filter(&*node->pushdown_pred);
    PushdownCounters local;
    PagePacker::Writer& writer = ThisWorker().writer;
    Status s = node->out->CheckOut(&writer);
    if (s.ok()) s = buffer_.ReadFiltered((*ids)[idx], filter, &writer, &local);
    const uint64_t survivor_bytes =
        writer.tuples_written() *
        static_cast<uint64_t>(node->out->tuple_width());
    writer.CheckIn();
    node->query->counters.pushdown.Add(local);
    RecordTrace(obs::TraceEventKind::kTaskExecuted, node->query,
                node->node->id, 0, survivor_bytes, "scan-pushdown");
    if (!s.ok()) node->query->Fail(s.WithContext("scan pushdown"));
  } else {
    auto page = buffer_.Fetch((*ids)[idx]);
    if (!page.ok()) {
      node->query->Fail(page.status().WithContext("scan fetch"));
    } else {
      RecordTrace(obs::TraceEventKind::kTaskExecuted, node->query,
                  node->node->id, 0,
                  static_cast<uint64_t>((*page)->payload_bytes()), "scan-step");
      Status s = node->out->EmitPage(*page);
      if (!s.ok()) node->query->Fail(s.WithContext("scan emit"));
    }
  }
  Dispatch(node->query,
           [this, node, ids, idx] { ScanStep(node, ids, idx + 1); });
}

void SchedulerImpl::DeleteDriver(NodeState* node) {
  QueryRuntime* q = node->query;
  q->counters.tasks_executed.fetch_add(1, std::memory_order_relaxed);
  if (!q->failed.load(std::memory_order_relaxed)) {
    // The target relation travels as one packet; the deletion itself is
    // the program's effect, applied when the node finalizes.
    const uint64_t before_bytes =
        node->program->file()->tuple_count() *
        static_cast<uint64_t>(node->node->output_schema.tuple_width());
    node->CountPacket(before_bytes);
    RecordTrace(obs::TraceEventKind::kTaskExecuted, q, node->node->id, 0,
                before_bytes, "delete");
  }
  {
    std::lock_guard<std::mutex> lock(node->mu);
    node->source_done = true;
    --node->pending;
  }
  node->TryFinalize();
}

// ---------------------------------------------------------------------------
// SchedulerImpl: query preparation and wiring
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<QueryRuntime>> SchedulerImpl::Prepare(
    const PlanNode& plan, size_t batch_index) {
  auto q = std::make_unique<QueryRuntime>();
  q->batch_index = batch_index;
  q->plan = plan.Clone();
  Analyzer analyzer(&storage_->catalog());
  DFDB_ASSIGN_OR_RETURN(q->analysis, analyzer.Resolve(q->plan.get()));
  ApplyPlanPolicies(opts(), q->plan.get());
  NodeState* root = BuildNode(q->plan.get(), nullptr, 0, q.get());
  if (root == nullptr) {
    return Status::Internal("failed to build node graph");
  }
  q->root = root;
  q->result.set_schema(q->plan->output_schema);
  return q;
}

bool SchedulerImpl::EdgeFused(const PlanNode& producer,
                              const PlanNode& consumer, QueryRuntime* q) {
  if (producer.op == PlanOp::kScan || !producer.pipeline_fused) return false;
  if (PipelineEdgeSafe(producer, consumer)) return true;
  // The plan asked for fusion the engine cannot prove safe (e.g. a
  // hand-marked plan): fall back to materialization.
  q->counters.pipeline_runtime_fallbacks.fetch_add(1,
                                                   std::memory_order_relaxed);
  return false;
}

NodeState* SchedulerImpl::BuildNode(const PlanNode* n, NodeState* parent,
                                    int slot, QueryRuntime* q) {
  auto state = std::make_unique<NodeState>();
  NodeState* ns = state.get();
  ns->impl = this;
  ns->query = q;
  ns->node = n;
  ns->parent = parent;
  ns->parent_slot = slot;
  ns->num_inputs = n->num_children();
  ns->input_closed.assign(static_cast<size_t>(ns->num_inputs), false);
  ns->pending_slot.assign(static_cast<size_t>(std::max(ns->num_inputs, 1)), 0);
  ns->held.resize(static_cast<size_t>(ns->num_inputs));
  // Leaves are always immediately executable.
  ns->relation_barrier =
      opts().granularity == Granularity::kRelation && ns->num_inputs > 0;

  auto program = NodeProgram::Build(*n, storage_, &q->counters.kernel);
  if (program.ok()) {
    ns->program = *std::move(program);
  } else {
    q->Fail(program.status().WithContext("node setup"));
  }

  // Per-edge pipeline decision for the edge to the consumer. A fused edge
  // delivers `direct`: its pages keep their packing (join output order
  // depends on operand page boundaries) but skip the buffer-hierarchy
  // round trip, and the consumer uses the live pointer without a fetch.
  bool direct = false;
  if (parent != nullptr && n->op != PlanOp::kScan) {
    if (EdgeFused(*n, *parent->node, q)) {
      direct = true;
      q->counters.pipeline_fused_edges.fetch_add(1, std::memory_order_relaxed);
    } else {
      q->counters.pipeline_materialized_edges.fetch_add(
          1, std::memory_order_relaxed);
    }
  }

  // Output packer: each sealed page goes into the query result at the
  // root, live to the consumer on a fused edge, else through the buffer
  // hierarchy. Its frames come from the storage engine's pool.
  const int tuple_width = std::max(1, n->output_schema.tuple_width());
  const RelationId pseudo = 0xD0000000u + static_cast<RelationId>(n->id);
  const bool count_distribution = n->op != PlanOp::kScan && !direct;
  const int node_id = n->id;
  ns->out.emplace(
      pseudo, tuple_width,
      UnitBytes(opts().granularity, opts().page_bytes, tuple_width),
      [this, q, node_id, parent, slot, count_distribution,
       direct](PagePtr page) {
        if (count_distribution) {
          q->counters.distribution_bytes.fetch_add(
              static_cast<uint64_t>(page->payload_bytes()),
              std::memory_order_relaxed);
        }
        q->counters.pages_produced.fetch_add(1, std::memory_order_relaxed);
        q->counters.tuples_produced.fetch_add(
            static_cast<uint64_t>(page->num_tuples()),
            std::memory_order_relaxed);
        RecordTrace(obs::TraceEventKind::kPageProduced, q, node_id, -1,
                    static_cast<uint64_t>(page->payload_bytes()),
                    parent == nullptr ? "root"
                    : direct          ? "fused-direct"
                                      : nullptr);
        if (parent == nullptr) {
          std::lock_guard<std::mutex> lock(q->result_mu);
          q->result.AddPage(std::move(page));
        } else if (direct) {
          // Fused edge: the page bypasses the buffer hierarchy — its
          // residency, reads and distribution/arbitration traffic are
          // elided.
          q->counters.pipeline_pages_elided.fetch_add(
              1, std::memory_order_relaxed);
          parent->OnPage(slot, PendingPage{std::move(page), PageId{}, true});
        } else {
          // The page becomes resident where it was produced and travels
          // on by pointer; only its id enters the hierarchy.
          const PageId id = buffer_.Admit(*page);
          q->RecordIntermediate(id);
          parent->OnPage(slot, PendingPage{std::move(page), id});
        }
      },
      storage_->frame_pool());

  // Children are wired after this node exists so their packers can
  // reference it.
  for (int i = 0; i < n->num_children(); ++i) {
    BuildNode(&n->child(i), ns, i, q);
  }

  q->nodes.push_back(std::move(state));
  return ns;
}

void SchedulerImpl::LaunchQuery(QueryRuntime* q) {
  // Start every source driver. Leaves are "immediately executable"
  // (Section 3.1) under every granularity. The drivers are enqueued as one
  // atomic batch so a single-worker schedule stays deterministic even while
  // the pool is already running.
  std::vector<Task> drivers;
  for (auto& node : q->nodes) {
    NodeState* ns = node.get();
    if (ns->node->op == PlanOp::kScan) {
      // Scan the immutable version this query's snapshot resolves to. The
      // pages are sealed and committed, so no flush and no coordination
      // with concurrent writers is needed.
      IndexPruneCounters index;
      PushdownCounters pushdown;
      auto opened = OpenScan(storage_, q->snapshot, *ns->node,
                             ns->parent != nullptr ? ns->parent->node : nullptr,
                             &index, &pushdown);
      q->counters.index.Add(index);
      q->counters.pushdown.Add(pushdown);
      if (!opened.ok()) {
        q->Fail(opened.status().WithContext("snapshot view"));
        std::lock_guard<std::mutex> lock(ns->mu);
        ns->source_done = true;
        continue;
      }
      ns->pushdown_pred = std::move(opened->pushdown);
      auto ids = std::make_shared<std::vector<PageId>>(std::move(opened->pages));
      {
        std::lock_guard<std::mutex> lock(ns->mu);
        ++ns->pending;
      }
      drivers.push_back(Task{q, [this, ns, ids] { ScanStep(ns, ids, 0); }});
    } else if (ns->node->op == PlanOp::kDelete) {
      {
        std::lock_guard<std::mutex> lock(ns->mu);
        ++ns->pending;
      }
      drivers.push_back(Task{q, [this, ns] { DeleteDriver(ns); }});
    }
  }
  queue_.PushAll(std::move(drivers));
  // Degenerate plans whose leaves failed setup still need to terminate.
  for (auto& node : q->nodes) {
    node->TryFinalize();
  }
}

// ---------------------------------------------------------------------------
// SchedulerImpl: admission, completion, reaping
// ---------------------------------------------------------------------------

void SchedulerImpl::StampSnapshotLocked(QueryRuntime* q) {
  // Publish any committed-state debt first: a relation in this query's
  // read/write sets may carry uncommitted head mutations made outside the
  // scheduler (direct HeapFile appends by the host program). Those belong
  // to no active writer, so this query is entitled to see them — commit
  // them now so the captured snapshot includes them. A relation owned by a
  // still-running writer keeps its uncommitted head private.
  auto publish = [&](const std::set<std::string>& rels) {
    for (const std::string& rel : rels) {
      if (writing_relations_.count(rel) > 0) continue;
      // No-op when clean; a failure here means the relation vanished since
      // analysis, which the scan driver reports properly.
      (void)storage_->CommitRelation(rel);
    }
  };
  publish(q->analysis.read_set);
  publish(q->analysis.write_set);
  q->snapshot = storage_->CaptureSnapshot();
  for (const std::string& rel : q->analysis.write_set) {
    writing_relations_[rel] = q->qid;
  }
}

StatusOr<QueryHandle> SchedulerImpl::Submit(const PlanNode& plan) {
  uint64_t qid = 0;
  size_t batch_index = 0;
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    if (shutting_down_) {
      return Status::Unavailable("scheduler is shut down");
    }
    qid = next_qid_++;
    batch_index = next_batch_index_++;
  }
  DFDB_ASSIGN_OR_RETURN(std::unique_ptr<QueryRuntime> owned,
                        Prepare(plan, batch_index));
  QueryRuntime* q = owned.get();
  q->qid = qid;
  q->submitted_at = std::chrono::steady_clock::now();
  q->state = std::make_shared<QueryState>();
  q->state->qid = qid;
  QueryHandle handle(q->state);

  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    if (shutting_down_) {
      return Status::Unavailable("scheduler is shut down");
    }
    runtimes_[qid] = std::move(owned);
    ++totals_.submitted;
    if (snapshot_mode() && q->analysis.write_set.empty()) {
      // Read-only query: it executes against an immutable snapshot, so it
      // cannot conflict with anything. Admit around the MC queue entirely —
      // it never queues and never skips.
      q->bypassed_admission = true;
      admitted = true;
    } else if (snapshot_mode()) {
      // Writer: its reads come from its snapshot, so the lock table only
      // arbitrates writer–writer conflicts.
      admitted = admission_.Submit(qid, /*read_set=*/{},
                                   q->analysis.write_set);
    } else {
      admitted = admission_.Submit(qid, q->analysis.read_set,
                                   q->analysis.write_set);
    }
    if (admitted) {
      ++totals_.admitted_immediately;
      ++active_queries_;
      StampSnapshotLocked(q);
    } else {
      ++totals_.queued;
      q->was_queued = true;
    }
  }
  if (admitted) {
    InFlightGuard guard(q);
    LaunchQuery(q);
    if (guard.ReleaseNeedsReap()) MaybeReap(q);
  }
  return handle;
}

void SchedulerImpl::FulfillLocked(QueryRuntime* q) {
  // Per-query snapshot: this query's own work, timed from submission to
  // completion (including any MC queue wait). Pool-wide fault/buffer
  // counters stay zero here.
  ExecStats qs;
  qs.wall_seconds =
      std::chrono::duration<double>(q->completed_at - q->submitted_at).count();
  q->counters.SnapshotInto(&qs);
  qs.sched.admitted = q->was_queued ? 0 : 1;
  qs.sched.queued = q->was_queued ? 1 : 0;
  qs.sched.requeues = q->failed_probes;
  qs.sched.queue_wait_ns = q->queue_wait_ns;
  qs.sched.skips = q->sched_skips;
  // Storage-wide MVCC stats observed at this query's completion.
  qs.mvcc = MvccDelta();

  ++totals_.completed;
  totals_.queue_wait_ns += q->queue_wait_ns;
  // AggregateStats replaces the summed sched and mvcc families with the
  // scheduler-wide values.
  totals_.work += qs;

  QueryState* state = q->state.get();
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->queue_wait_ns.store(q->queue_wait_ns, std::memory_order_relaxed);
    if (q->failed.load()) {
      std::lock_guard<std::mutex> err_lock(q->err_mu);
      state->status = q->error.WithContext(
          StrFormat("query %llu", static_cast<unsigned long long>(q->qid)));
    } else {
      std::lock_guard<std::mutex> result_lock(q->result_mu);
      q->result.set_stats(std::move(qs));
      state->result = std::move(q->result);
    }
    state->done = true;
  }
  state->cv.notify_all();
}

void SchedulerImpl::OnQueryDone(QueryRuntime* q) {
  q->completed_at = std::chrono::steady_clock::now();
  // Drop the intermediate pages' residency. Their frames went back to the
  // pool as their last readers retired.
  {
    std::lock_guard<std::mutex> lock(q->interm_mu);
    for (PageId id : q->intermediates) buffer_.Forget(id);
    q->intermediates.clear();
  }
  // Writer epilogue, in both concurrency modes: a failed writer's
  // uncommitted head mutations are rolled back to the last committed
  // version; a successful writer's are committed (usually a no-op — the
  // execution paths publish through SyncStats — but it guarantees the next
  // admission's snapshot sees this writer's effects). Safe outside
  // admit_mu_: this query still owns its write relations in
  // writing_relations_, so no concurrent admission will commit or publish
  // them meanwhile.
  const bool failed = q->failed.load(std::memory_order_relaxed);
  for (const std::string& rel : q->analysis.write_set) {
    if (failed) {
      (void)storage_->RollbackRelation(rel);
    } else {
      (void)storage_->CommitRelation(rel);
    }
  }
  std::vector<QueryRuntime*> to_launch;
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    const auto now = std::chrono::steady_clock::now();
    for (const std::string& rel : q->analysis.write_set) {
      auto it = writing_relations_.find(rel);
      if (it != writing_relations_.end() && it->second == q->qid) {
        writing_relations_.erase(it);
      }
    }
    std::vector<AdmissionQueue::ReAdmitted> readmitted;
    // Bypassed readers hold no admission locks; probing the queue for them
    // would only inflate requeue-failure counts.
    if (!q->bypassed_admission) readmitted = admission_.Release(q->qid);
    for (const AdmissionQueue::ReAdmitted& adm : readmitted) {
      auto it = runtimes_.find(adm.qid);
      if (it == runtimes_.end()) continue;  // Cancelled meanwhile.
      QueryRuntime* cand = it->second.get();
      cand->failed_probes = adm.failed_probes;
      cand->sched_skips = adm.skips;
      cand->queue_wait_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - cand->submitted_at)
              .count());
      ++active_queries_;
      StampSnapshotLocked(cand);
      to_launch.push_back(cand);
    }
    --active_queries_;
    FulfillLocked(q);
    q->completed.store(true, std::memory_order_release);
    if (active_queries_ == 0) drain_cv_.notify_all();
  }
  for (QueryRuntime* cand : to_launch) {
    InFlightGuard guard(cand);
    LaunchQuery(cand);
    if (guard.ReleaseNeedsReap()) MaybeReap(cand);
  }
  // Drop the completion reference taken at construction. This is the last
  // access to `q` on this path: if the drop reaches zero the caller's frame
  // is the sole remaining owner (the worker executing this close callback
  // still holds its own reference, so zero is reached there or later).
  if (q->in_flight.fetch_sub(1, std::memory_order_acq_rel) == 1) MaybeReap(q);
}

void SchedulerImpl::MaybeReap(QueryRuntime* q) {
  // Only the frame whose in_flight decrement reached zero gets here, and
  // zero is unreachable before OnQueryDone drops the completion reference —
  // so the caller owns `q` exclusively and these loads cannot race.
  DFDB_CHECK(q->completed.load(std::memory_order_acquire));
  DFDB_CHECK(q->in_flight.load(std::memory_order_acquire) == 0);
  std::unique_ptr<QueryRuntime> doomed;
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    auto it = runtimes_.find(q->qid);
    if (it == runtimes_.end() || it->second.get() != q) return;
    doomed = std::move(it->second);
    runtimes_.erase(it);
  }
  // Node graph (and any retained operand pages) destroyed here, outside the
  // admission lock.
}

// ---------------------------------------------------------------------------
// SchedulerImpl: worker pool lifecycle
// ---------------------------------------------------------------------------

void SchedulerImpl::WorkerLoop(int worker_index) {
  const EngineFaultPlan& fp = opts().fault_plan;
  // Clamp so at least one worker survives to drain the queue. Claims are
  // numbered across the pool, so the abandon point cannot be outrun by
  // healthy workers draining the batch first; each abandoning worker exits,
  // so every doomed claim lands on a different worker.
  const uint64_t doomed_count = static_cast<uint64_t>(
      std::max(0, std::min(fp.abandon_workers, opts().num_processors - 1)));
  for (;;) {
    auto task = queue_.Pop();
    if (!task.has_value()) return;
    const uint64_t claim =
        doomed_count == 0
            ? 0
            : claimed_tasks_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (claim > fp.abandon_after_tasks &&
        claim <= fp.abandon_after_tasks + doomed_count) {
      // Fail-stop at a packet boundary: the claimed task has not run, so
      // handing it back re-executes it from scratch on a survivor and the
      // results are exactly those of a healthy run.
      counters_.faults_injected.fetch_add(1, std::memory_order_relaxed);
      counters_.workers_abandoned.fetch_add(1, std::memory_order_relaxed);
      RecordTrace(obs::TraceEventKind::kFaultInjected, nullptr, -1,
                  worker_index, 0, "worker-abandon");
      if (queue_.TryPush(std::move(*task))) {
        counters_.redispatched_tasks.fetch_add(1, std::memory_order_relaxed);
        RecordTrace(obs::TraceEventKind::kFaultRecovered, nullptr, -1,
                    worker_index, 0, "task-redispatched");
      }
      return;
    }
    const int busy = busy_workers_.fetch_add(1, std::memory_order_relaxed) + 1;
    int peak = peak_busy_workers_.load(std::memory_order_relaxed);
    while (busy > peak && !peak_busy_workers_.compare_exchange_weak(
                              peak, busy, std::memory_order_relaxed)) {
    }
    QueryRuntime* q = task->query;
    if (q != nullptr) q->in_flight.fetch_add(1, std::memory_order_acq_rel);
    task->fn();
    busy_workers_.fetch_sub(1, std::memory_order_relaxed);
    if (q != nullptr &&
        q->in_flight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      MaybeReap(q);
    }
  }
}

void SchedulerImpl::Start() {
  std::lock_guard<std::mutex> lock(admit_mu_);
  if (started_ || shutting_down_) return;
  started_ = true;
  workers_.reserve(static_cast<size_t>(opts().num_processors));
  for (int i = 0; i < opts().num_processors; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

void SchedulerImpl::Shutdown() {
  // Serialize whole shutdowns: a second concurrent caller must not return
  // until the first has joined the workers (callers destroy the scheduler
  // right after Shutdown() returns). Idempotence is preserved — later
  // entrants see shutdown_complete_ and return immediately.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_serial_mu_);
  std::vector<std::shared_ptr<QueryState>> cancelled;
  bool join_workers = false;
  {
    std::unique_lock<std::mutex> lock(admit_mu_);
    if (shutdown_complete_) return;
    if (!shutting_down_) {
      shutting_down_ = true;
      // Fail every query still waiting for admission: nothing of theirs
      // ever ran.
      for (uint64_t qid : admission_.CancelAll()) {
        auto it = runtimes_.find(qid);
        if (it == runtimes_.end()) continue;
        ++totals_.cancelled;
        cancelled.push_back(it->second->state);
        runtimes_.erase(it);
      }
      if (!started_) {
        // Workers never ran: admitted queries have queued tasks but no
        // side effects; cancel them too and drop the queue.
        for (auto& [qid, rt] : runtimes_) {
          if (rt->completed.load()) continue;
          ++totals_.cancelled;
          cancelled.push_back(rt->state);
        }
        runtimes_.clear();
        writing_relations_.clear();
        active_queries_ = 0;
        queue_.Close();
        shutdown_complete_ = true;
      }
    }
    if (started_ && !shutdown_complete_) {
      // Drain running queries, then let workers finish any remaining
      // pool-level tasks (poison packets) and exit.
      drain_cv_.wait(lock, [&] { return active_queries_ == 0; });
      if (!workers_.empty() || !queue_.closed()) {
        join_workers = true;
      }
    }
  }
  for (const auto& state : cancelled) {
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->status = Status::Cancelled(StrFormat(
          "query %llu cancelled by scheduler shutdown",
          static_cast<unsigned long long>(state->qid)));
      state->done = true;
    }
    state->cv.notify_all();
  }
  if (join_workers) {
    queue_.Close();
    std::vector<std::thread> workers;
    {
      std::lock_guard<std::mutex> lock(admit_mu_);
      workers.swap(workers_);
    }
    for (auto& w : workers) w.join();
    std::lock_guard<std::mutex> lock(admit_mu_);
    shutdown_complete_ = true;
  }
}

// ---------------------------------------------------------------------------
// SchedulerImpl: observability
// ---------------------------------------------------------------------------

ExecStats SchedulerImpl::AggregateStats() const {
  std::lock_guard<std::mutex> lock(admit_mu_);
  ExecStats stats = totals_.work;
  stats.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - run_start_)
                           .count();
  // Pool-wide counters: only the fault rows count there, and those are
  // zero in the per-query totals.
  ExecStats pool;
  counters_.SnapshotInto(&pool);
  stats += pool;
  stats.sched = SchedTotalsLocked();
  stats.mvcc = MvccDelta();
  stats.buffer = buffer_.stats();
  stats.trace = finished_trace_;
  return stats;
}

void SchedulerImpl::SnapshotMetrics(obs::MetricsRegistry* registry) const {
  std::lock_guard<std::mutex> lock(admit_mu_);
  const SchedCounters sched = SchedTotalsLocked();
  ExportCounters(registry, "engine.", sched, MvccDelta());
  // engine.sched.requeues again, under the AdmissionQueue's own name.
  registry->Set("engine.sched.requeue_failures", sched.requeues);
  registry->Set("engine.sched.submitted", totals_.submitted);
  registry->Set("engine.sched.completed", totals_.completed);
  registry->Set("engine.sched.cancelled", totals_.cancelled);
  registry->Set("engine.sched.active_queries",
                static_cast<uint64_t>(active_queries_));
  registry->Set("engine.sched.queue_depth",
                static_cast<uint64_t>(admission_.queued()));
  registry->Set("engine.sched.pool.workers",
                static_cast<uint64_t>(opts().num_processors));
  registry->Set("engine.sched.pool.busy", static_cast<uint64_t>(std::max(
                                              0, busy_workers_.load())));
  registry->Set("engine.sched.pool.peak_busy",
                static_cast<uint64_t>(std::max(0, peak_busy_workers_.load())));
  registry->Set("engine.mvcc.last_commit_ts", storage_->last_commit_ts());
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

uint64_t QueryHandle::qid() const {
  return state_ != nullptr ? state_->qid : 0;
}

bool QueryHandle::Done() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

StatusOr<QueryResult> QueryHandle::Wait() {
  if (state_ == nullptr) {
    return Status::FailedPrecondition("empty QueryHandle");
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
  if (state_->taken) {
    return Status::FailedPrecondition("query result already taken");
  }
  state_->taken = true;
  if (!state_->status.ok()) return state_->status;
  return std::move(state_->result);
}

uint64_t QueryHandle::queue_wait_ns() const {
  return state_ != nullptr
             ? state_->queue_wait_ns.load(std::memory_order_relaxed)
             : 0;
}

Scheduler::Scheduler(StorageEngine* storage, SchedulerOptions options)
    : impl_(std::make_unique<internal::SchedulerImpl>(storage,
                                                      std::move(options))) {}

Scheduler::Scheduler(StorageEngine* storage, ExecOptions exec_options)
    : Scheduler(storage, SchedulerOptions{std::move(exec_options), 8, false}) {}

Scheduler::~Scheduler() = default;

const SchedulerOptions& Scheduler::options() const { return impl_->options(); }

StatusOr<QueryHandle> Scheduler::Submit(const PlanNode& plan) {
  return impl_->Submit(plan);
}

void Scheduler::Start() { impl_->Start(); }

void Scheduler::Shutdown() { impl_->Shutdown(); }

ExecStats Scheduler::AggregateStats() const { return impl_->AggregateStats(); }

void Scheduler::SnapshotMetrics(obs::MetricsRegistry* registry) const {
  impl_->SnapshotMetrics(registry);
}

std::shared_ptr<const obs::Trace> Scheduler::FinishTrace() {
  return impl_->FinishTrace();
}

}  // namespace dfdb
