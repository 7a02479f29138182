#include "machine/simulator.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/bitvector.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "engine/concurrency.h"
#include "engine/exec_options.h"
#include "index/access_path.h"
#include "machine/event_queue.h"
#include "machine/fault_injector.h"
#include "machine/packet.h"
#include "machine/resources.h"
#include "obs/trace.h"
#include "operators/node_program.h"
#include "ra/expr_compile.h"
#include "storage/page_sink.h"

namespace dfdb {

namespace {

// Analytic wire sizes, consistent with packet.cc (asserted in tests).
constexpr int64_t kInstrHeaderBytes = 48;
constexpr int64_t kPerOperandBytes = 16;     // name + tuple len + page len.
constexpr int64_t kPageHeaderBytes = 16;     // Serialized page header.
constexpr int64_t kControlBytes = 20;
constexpr int64_t kResultHeaderBytes = 20;   // ICid + len + name + page len.

int64_t OperandWire(int64_t payload) {
  return kPerOperandBytes + (payload > 0 ? kPageHeaderBytes + payload : 0);
}
int64_t UnaryPacketWire(int64_t payload) {
  return kInstrHeaderBytes + OperandWire(payload);
}
int64_t JoinPacketWire(int64_t outer_payload, int64_t inner_payload,
                       bool has_inner) {
  return kInstrHeaderBytes + OperandWire(outer_payload) +
         (has_inner ? OperandWire(inner_payload) : 0);
}
int64_t ResultPacketWire(int64_t payload) {
  return kResultHeaderBytes + (payload > 0 ? kPageHeaderBytes + payload : 0);
}

/// A page staged at an IC, identified for residency accounting.
struct StagedPage {
  PagePtr page;
  uint64_t uid = 0;
  /// Section 5.0 direct routing: the page was shipped straight to an IP
  /// and never entered the IC's memory; dispatching it needs only a
  /// header-only instruction packet.
  bool at_ip = false;
};

enum class InstrPhase { kWaiting, kRunning, kFlushing, kFinished };

struct OperandRt {
  std::vector<StagedPage> pages;
  bool complete = false;
  /// Streaming cursor: pages before this index have been assigned.
  size_t next_unassigned = 0;
  /// The IC's compressor: arriving pages and tuples become machine units,
  /// each delivered as a staged page as it fills.
  std::unique_ptr<PagePacker> packer;
  /// Near-data pushdown (PlanNode::pushdown on the staged scan): the
  /// compiled restrict runs at the disk-cache port during staging, so only
  /// surviving tuples cross into IC memory. Set by StartStaging.
  std::optional<CompiledPredicate> pushdown_pred;
};

struct IpRt {
  int id = 0;
  SerialResource proc;
  int instr = -1;  ///< Owning instruction, -1 = in the MC pool.
  bool busy = false;
  bool flush_sent = false;
  /// "Tuples of the result relation are first placed by the IP in an
  /// internal buffer" (Section 4.2): one machine unit of the owning
  /// instruction's output, opened at each grant. Sealed pages wait in
  /// `sealed` until the kernel's service time has elapsed.
  std::unique_ptr<PagePacker> results;
  std::vector<PagePtr> sealed;

  // Fault state. A dead IP stops accepting packets at its kill tick
  // (fail-stop at packet boundaries); `removed` flips once the MC has
  // detected the death and salvaged the IP's work.
  bool dead = false;
  bool removed = false;
  /// An assignment the controlling IC has inserted on the ring but the IP
  /// has not yet acknowledged. Cleared at acceptance; watchdog and retry
  /// events validate (id, attempts) against it, so stale timers no-op.
  struct PendingAssign {
    enum Kind { kUnary, kJoin, kFlush };
    uint64_t id = 0;
    Kind kind = kUnary;
    int attempts = 1;  ///< Transmissions so far (first send included).
    int slot = 0;                     ///< kUnary: operand slot.
    size_t unit_idx = 0;              ///< kUnary: unit; kJoin: outer page.
    std::optional<size_t> first_inner;  ///< kJoin: inner shipped along.
    int64_t wire = 0;                 ///< Ring bytes per transmission.
  };
  std::optional<PendingAssign> assign;

  // Join protocol state (Section 4.2).
  bool has_outer = false;
  StagedPage outer;
  size_t outer_idx = 0;
  BitVector irc;
  std::deque<size_t> pending_inner;  ///< Broadcast pages queued (cap 2).
  bool awaiting_request = false;     ///< Sent kRequestPage, no reply yet.
};

struct InstrRt {
  const MachineInstruction* def = nullptr;
  int ic = 0;
  InstrPhase phase = InstrPhase::kWaiting;
  std::vector<OperandRt> operands;
  std::vector<int> ips;
  bool request_outstanding = false;
  int outstanding_packets = 0;
  uint64_t outer_done = 0;
  int unflushed = 0;
  /// Arrival time of an in-flight broadcast per inner page (suppresses the
  /// paper's "subsequent requests ... received soon afterwards").
  std::vector<SimTime> inner_bcast_until;
  bool inner_complete_sent = false;
  /// Outer pages taken back from reclaimed IPs, with their join progress
  /// (IRC vector) preserved; re-dispatched before fresh outer pages.
  std::vector<std::pair<size_t, BitVector>> requeued_outers;
  /// Streaming units lost to a dead IP before it accepted them (slot,
  /// unit index); re-dispatched to survivors ahead of the stream cursor.
  /// Exactly-once by construction: a lost unit never started.
  std::deque<std::pair<int, size_t>> lost_units;
  /// What the instruction computes, built before the run starts. Its state
  /// (a parallel project's partitions too) lives at the instruction, so
  /// processor reassignment cannot lose it.
  std::unique_ptr<NodeProgram> program;
  /// kJoin: the hash table of each inner page, built once when the page is
  /// staged (index = inner page index; null entries run nested loops).
  std::vector<std::unique_ptr<const JoinTable>> inner_tables;
  /// The key hashes of the outer page a join step probes with.
  JoinScratch join_scratch;
};

struct IcRt {
  int id = 0;
  LruPageSet local;
  IcRt(int id_, size_t capacity) : id(id_), local(capacity) {}
};

/// The whole machine for one Run() call.
class Sim {
 public:
  Sim(StorageEngine* storage, const MachineOptions& options,
      MachineProgram program, size_t num_queries)
      : storage_(storage),
        opt_(options),
        cfg_(options.config),
        prog_(std::move(program)),
        disk_cache_(static_cast<size_t>(cfg_.disk_cache_pages)),
        report_(),
        injector_(options.fault_plan),
        trace_(options.enable_trace) {
    report_.num_ips = cfg_.num_instruction_processors;
    report_.pipeline_fused_edges = prog_.pipeline.fused_edges;
    report_.pipeline_materialized_edges = prog_.pipeline.materialized_edges;
    report_.pipeline_runtime_fallbacks = prog_.pipeline.fallbacks;
    live_ips_ = cfg_.num_instruction_processors;
    live_ics_ = cfg_.num_instruction_controllers;
    ic_alive_.assign(static_cast<size_t>(cfg_.num_instruction_controllers), 1);
    report_.query_completion.assign(num_queries, SimTime::Zero());
    report_.results.resize(num_queries);
    query_snapshots_.resize(num_queries);
    drives_.resize(static_cast<size_t>(std::max(1, cfg_.num_disk_drives)));
    for (int i = 0; i < cfg_.num_instruction_controllers; ++i) {
      ics_.emplace_back(i, static_cast<size_t>(cfg_.ic_local_memory_pages));
    }
    for (int i = 0; i < cfg_.num_instruction_processors; ++i) {
      ips_.emplace_back();
      ips_.back().id = i;
      free_ips_.push_back(i);
    }
    instrs_.resize(prog_.instructions.size());
    for (size_t i = 0; i < prog_.instructions.size(); ++i) {
      instrs_[i].def = &prog_.instructions[i];
      instrs_[i].ic = static_cast<int>(i) % cfg_.num_instruction_controllers;
      instrs_[i].operands.resize(prog_.instructions[i].operands.size());
      for (size_t slot = 0; slot < instrs_[i].operands.size(); ++slot) {
        const Schema& schema = prog_.instructions[i].operands[slot].schema;
        instrs_[i].operands[slot].packer = std::make_unique<PagePacker>(
            0, schema.tuple_width(),
            UnitBytes(opt_.granularity, cfg_.page_bytes, schema.tuple_width()),
            [this, id = static_cast<int>(i), slot](PagePtr page) {
              DeliverOperandPage(id, static_cast<int>(slot),
                                 StagedPage{std::move(page), NextUid()});
            });
      }
      auto program = NodeProgram::Build(*prog_.instructions[i].node, storage_,
                                        &kernel_stats_,
                                        PartitionsOf(instrs_[i]));
      if (program.ok()) {
        instrs_[i].program = *std::move(program);
      } else {
        Fail(program.status());  // Run() stops before any event.
      }
    }
  }

  Status Run();
  MachineReport&& TakeReport() { return std::move(report_); }

 private:
  // ---- helpers -----------------------------------------------------------
  void Fail(const Status& s) {
    if (error_.ok()) error_ = s;
  }

  /// Arrival time of an outer-ring message of \p bytes.
  SimTime SendOuter(int64_t bytes) {
    report_.bytes.outer_ring += static_cast<uint64_t>(bytes);
    const SimTime done =
        outer_ring_.Acquire(eq_.now(), cfg_.outer_ring.InsertionTime(bytes));
    const int stations =
        cfg_.num_instruction_controllers + cfg_.num_instruction_processors;
    return done + cfg_.outer_ring.PropagationTime(stations);
  }

  /// Arrival time of an inner-ring (control) message.
  SimTime SendInner(int64_t bytes) {
    report_.bytes.inner_ring += static_cast<uint64_t>(bytes);
    const SimTime done =
        inner_ring_.Acquire(eq_.now(), cfg_.inner_ring.InsertionTime(bytes));
    return done + cfg_.inner_ring.PropagationTime(
                      cfg_.num_instruction_controllers + 1) +
           kMcProcessing;
  }

  SerialResource& DriveFor(uint64_t uid) {
    return drives_[uid % drives_.size()];
  }

  int64_t BytesOf(uint64_t uid) const {
    auto it = page_sizes_.find(uid);
    return it != page_sizes_.end() ? it->second
                                   : static_cast<int64_t>(cfg_.page_bytes);
  }

  /// Makes \p uid resident in the disk-cache level; victims displaced from
  /// the cache are written back to a disk drive (time and bytes).
  void SpillToCache(uint64_t uid) {
    std::vector<uint64_t> evicted;
    disk_cache_.InsertEvict(uid, &evicted);
    for (uint64_t v : evicted) {
      const int64_t b = BytesOf(v);
      report_.bytes.disk_write += static_cast<uint64_t>(b);
      DriveFor(v).Acquire(eq_.now(), cfg_.disk.SequentialTime(b));
    }
  }

  /// Inserts \p uid into \p ic's local memory, spilling LRU victims to the
  /// disk cache ("the IC will write the least desirable pages to its
  /// segment of the multiport disk cache", Section 4.1).
  void InsertLocal(IcRt* ic, uint64_t uid, int64_t bytes) {
    page_sizes_.emplace(uid, bytes);
    std::vector<uint64_t> evicted;
    ic->local.InsertEvict(uid, &evicted);
    for (uint64_t v : evicted) {
      report_.bytes.ic_to_cache += static_cast<uint64_t>(BytesOf(v));
      SpillToCache(v);
    }
  }

  /// Makes page \p uid resident in \p ic's local memory, walking down the
  /// hierarchy as needed: local hit is free; a disk-cache hit pays one
  /// cache access; a full miss pays a disk access (with drive contention)
  /// plus the cache transfer.
  SimTime EnsureLocal(IcRt* ic, uint64_t uid, int64_t bytes) {
    if (ic->local.Touch(uid)) return SimTime::Zero();
    SimTime delay = CacheStallPenalty();
    if (disk_cache_.Touch(uid)) {
      report_.bytes.cache_to_ic += static_cast<uint64_t>(bytes);
      delay += cfg_.cache.AccessTime(bytes);
    } else {
      const SimTime done =
          DriveFor(uid).Acquire(eq_.now(), cfg_.disk.AccessTime(bytes));
      report_.bytes.disk_read += static_cast<uint64_t>(bytes);
      SpillToCache(uid);
      report_.bytes.cache_to_ic += static_cast<uint64_t>(bytes);
      delay += (done - eq_.now()) + cfg_.cache.AccessTime(bytes);
    }
    InsertLocal(ic, uid, bytes);
    return delay;
  }

  uint64_t NextUid() { return next_uid_++; }

  // ---- lifecycle ---------------------------------------------------------
  void SubmitAll();
  void TryAdmitWaiting();
  void StartQuery(size_t qi);
  void StartStaging(int instr_id, int slot);
  void StageNextRawPage(int instr_id, int slot,
                        std::shared_ptr<std::vector<PageId>> ids, size_t idx);
  void RepackInto(int instr_id, int slot, const PagePtr& raw);
  void DeliverOperandPage(int instr_id, int slot, StagedPage staged);
  void CompleteOperand(int instr_id, int slot);
  void TryStart(int instr_id);
  void RequestIps(int instr_id);
  void HandleIpRequestAtMc(int instr_id);
  void GrantArrive(int instr_id);
  void ReleaseIdleIp(int instr_id, int ip_id);
  void ReleaseAllIps(int instr_id);
  void PumpPendingRequests();
  void ReclaimIdleIps();

  void DispatchWork(int instr_id);
  std::optional<std::pair<int, size_t>> NextStreamPage(InstrRt* ir);

  /// Diagnostic dump of every unfinished instruction (stall debugging).
  std::string DebugStates() const {
    std::string out;
    for (size_t i = 0; i < instrs_.size(); ++i) {
      const InstrRt& ir = instrs_[i];
      if (ir.phase == InstrPhase::kFinished) continue;
      out += StrFormat(
          "instr %zu q%llu op=%s phase=%d ips=%zu outstanding=%d "
          "outer_done=%llu req_out=%d unflushed=%d |",
          i, static_cast<unsigned long long>(ir.def->query_id),
          std::string(PlanOpToString(ir.def->op)).c_str(),
          static_cast<int>(ir.phase), ir.ips.size(), ir.outstanding_packets,
          static_cast<unsigned long long>(ir.outer_done),
          ir.request_outstanding ? 1 : 0, ir.unflushed);
      for (const OperandRt& op : ir.operands) {
        out += StrFormat(" [pages=%zu next=%zu complete=%d]", op.pages.size(),
                         op.next_unassigned, op.complete ? 1 : 0);
      }
      for (int ip_id : ir.ips) {
        const IpRt& ip = ips_[static_cast<size_t>(ip_id)];
        out += StrFormat(" ip%d{busy=%d outer=%d irc=%zu/%zu wait=%d}", ip_id,
                         ip.busy ? 1 : 0, ip.has_outer ? 1 : 0,
                         ip.irc.Count(), ip.irc.size(),
                         ip.awaiting_request ? 1 : 0);
      }
      out += "\n";
    }
    out += StrFormat("free_ips=%zu pending_requests=%zu\n", free_ips_.size(),
                     pending_requests_.size());
    return out;
  }

  /// Section 5.0: is this instruction the parallel dedup-project?
  bool IsParallelProject(const InstrRt& ir) const {
    return opt_.parallel_project && ir.def->op == PlanOp::kProject &&
           ir.def->node->dedup;
  }

  /// Barrier semantics apply unless the parallel-project option lifts them.
  bool IsBarrier(const InstrRt& ir) const {
    return ir.def->barrier && !IsParallelProject(ir);
  }

  /// Hash-partition fan-out of one instruction (1 for everything except
  /// the parallel project).
  int PartitionsOf(const InstrRt& ir) const {
    if (!IsParallelProject(ir)) return 1;
    return std::max(1, std::min(opt_.project_partitions,
                                cfg_.num_instruction_processors));
  }

  /// Streaming work units of one operand: pages, times partitions (each
  /// parallel-project page is processed once per partition).
  size_t StreamUnits(const InstrRt& ir, const OperandRt& op) const {
    return op.pages.size() * static_cast<size_t>(PartitionsOf(ir));
  }

  /// True if NextStreamPage would return a unit (no cursor movement).
  bool HasStreamWork(const InstrRt& ir) const {
    if (!ir.lost_units.empty()) return true;
    for (size_t slot = 0; slot < ir.operands.size(); ++slot) {
      const OperandRt& op = ir.operands[slot];
      if (op.next_unassigned < StreamUnits(ir, op)) return true;
    }
    return false;
  }

  void SendUnaryPacket(int instr_id, int ip_id, int slot, size_t page_idx);
  void IpUnaryArrive(int instr_id, int ip_id, int slot, size_t page_idx);
  void IpUnaryDone(int instr_id, int ip_id, std::vector<PagePtr> full_pages);

  void SendJoinAssign(int instr_id, int ip_id, size_t outer_idx,
                      const BitVector* resume_irc = nullptr);
  void IpJoinAssignArrive(int instr_id, int ip_id,
                          std::optional<size_t> inner_idx);
  void IpStartJoinStep(int instr_id, int ip_id, size_t inner_idx);
  void IpJoinStepDone(int instr_id, int ip_id,
                      std::vector<PagePtr> full_pages);
  void IpJoinAdvance(int instr_id, int ip_id);
  void IpOuterDone(int instr_id, int ip_id);
  void IcHandlePageRequest(int instr_id, size_t inner_idx);

  /// A directly routed outer page taken back from a reclaimed IP returns
  /// to the IC's custody (it can no longer be assumed resident at an IP).
  void NormalizeRequeuedOuter(InstrRt* ir, size_t outer_idx) {
    StagedPage& sp = ir->operands[0].pages[outer_idx];
    if (sp.at_ip) {
      sp.at_ip = false;
      InsertLocal(&ics_[static_cast<size_t>(ir->ic)], sp.uid,
                  sp.page->payload_bytes());
    }
  }
  void BroadcastInner(int instr_id, size_t inner_idx);
  void NotifyInnerComplete(int instr_id);

  void SendResultPage(int instr_id, PagePtr page);
  void DeliverResult(int producer_instr, PagePtr page);

  void MaybeFlush(int instr_id);
  void SendFlush(int instr_id, int ip_id);
  void IpFlushArrive(int instr_id, int ip_id);
  void FinishInstr(int instr_id);

  // ---- fault injection and recovery --------------------------------------
  // Section 4's case for distributed instruction control is graceful
  // degradation; these paths make that argument executable. Fault-free
  // runs (empty plan) take the exact same event sequence: the assignment
  // bookkeeping is free and acknowledgements/watchdogs are only armed
  // when a plan is present.
  void ArmFaults();
  void TransmitAssignment(int instr_id, int ip_id, uint64_t assign_id);
  void AssignmentArrive(int instr_id, int ip_id, uint64_t assign_id);
  void AssignmentTimeout(int instr_id, int ip_id, uint64_t assign_id,
                         int attempt);
  void RetryAssignment(int instr_id, int ip_id, uint64_t assign_id,
                       int attempt);
  void KillIp(int ip_id);
  void DeclareIpDead(int ip_id);
  void FailIc(int ic_id);
  void RehomeIc(int ic_id);
  void InjectCacheStall(SimTime duration);
  /// Extra latency on disk-cache accesses while a stall window is open.
  SimTime CacheStallPenalty() const {
    return cache_stall_until_ > eq_.now() ? cache_stall_until_ - eq_.now()
                                          : SimTime::Zero();
  }

  /// Runs the instruction's program at \p ip on operand page \p in of
  /// \p slot (with \p inner and its \p table: one join step), appending
  /// output to the IP's result buffer; returns the full result pages and
  /// the output bytes.
  StatusOr<std::pair<std::vector<PagePtr>, int64_t>> RunKernel(
      InstrRt* ir, IpRt* ip, int slot, const Page& in, const Page* inner,
      const JoinTable* table, int partition = 0);
  /// Ships the IP's sealed result pages and its partially filled one.
  void ShipResultBuffer(int instr_id, IpRt* ip) {
    ip->results->Flush();
    for (PagePtr& page : ip->sealed) SendResultPage(instr_id, std::move(page));
    ip->sealed.clear();
  }

  // ---- state -------------------------------------------------------------
  static constexpr SimTime kMcProcessing = SimTime::Micros(50);

  StorageEngine* storage_;
  MachineOptions opt_;
  MachineConfig cfg_;
  MachineProgram prog_;

  EventQueue eq_;
  SerialResource outer_ring_;
  SerialResource inner_ring_;
  std::vector<SerialResource> drives_;
  LruPageSet disk_cache_;
  std::vector<IcRt> ics_;
  std::vector<IpRt> ips_;
  std::vector<InstrRt> instrs_;
  std::deque<int> free_ips_;
  std::deque<int> pending_requests_;
  ConflictManager conflicts_;
  std::deque<size_t> waiting_queries_;
  /// One storage snapshot per query, captured at admission and released at
  /// completion: base-operand staging reads the same immutable page set the
  /// threads engine would, regardless of concurrent writers.
  std::vector<Snapshot> query_snapshots_;
  size_t active_queries_ = 0;
  bool in_reclaim_ = false;
  /// Byte size per page uid (raw PageIds and staged uids share the space).
  std::unordered_map<uint64_t, int64_t> page_sizes_;

  MachineReport report_;
  Status error_;
  uint64_t next_uid_ = 1ull << 40;
  /// Compiled-vs-interpreted kernel outcomes across all IPs (single driver
  /// thread; snapshotted into the report at the end of the run).
  KernelStats kernel_stats_;

  // Fault machinery.
  FaultInjector injector_;
  int live_ips_ = 0;
  int live_ics_ = 0;
  std::vector<char> ic_alive_;
  SimTime cache_stall_until_;
  uint64_t next_assign_id_ = 1;

  // Observability. Records in event order from the single driver thread at
  // sim-time timestamps, so the trace is bit-for-bit reproducible.
  obs::TraceRecorder trace_;

  /// Records one trace event; `instr_id < 0` means "no instruction" (query
  /// resolves to 0). \p station is the IP or IC involved, -1 if none.
  void Tr(obs::TraceEventKind kind, int instr_id, int station, int64_t bytes,
          const char* detail) {
    if (!trace_.enabled()) return;
    const uint64_t query =
        instr_id >= 0
            ? static_cast<uint64_t>(
                  instrs_[static_cast<size_t>(instr_id)].def->query_index)
            : 0;
    trace_.Record(kind, query, instr_id, station,
                  bytes > 0 ? static_cast<uint64_t>(bytes) : 0, detail,
                  eq_.now().nanos());
  }
};

// ---------------------------------------------------------------------------
// Submission and admission
// ---------------------------------------------------------------------------

void Sim::SubmitAll() {
  for (size_t qi = 0; qi < prog_.roots.size(); ++qi) {
    waiting_queries_.push_back(qi);
  }
  TryAdmitWaiting();
}

void Sim::TryAdmitWaiting() {
  for (auto it = waiting_queries_.begin(); it != waiting_queries_.end();) {
    const size_t qi = *it;
    const QueryAnalysis& analysis = prog_.analyses[qi];
    if (conflicts_.TryAdmit(qi + 1, analysis.read_set, analysis.write_set)) {
      ++active_queries_;
      it = waiting_queries_.erase(it);
      // Publish any committed-state debt (direct host appends) on the
      // relations this query touches, then stamp its snapshot. Safe to
      // commit here: the ConflictManager just granted this query exclusive
      // access against writers of everything in its sets.
      for (const std::string& rel : analysis.read_set) {
        (void)storage_->CommitRelation(rel);
      }
      for (const std::string& rel : analysis.write_set) {
        (void)storage_->CommitRelation(rel);
      }
      query_snapshots_[qi] = storage_->CaptureSnapshot();
      StartQuery(qi);
    } else {
      ++it;
    }
  }
}

void Sim::StartQuery(size_t qi) {
  // The MC distributes the query's instructions to the ICs over the inner
  // ring (small control messages).
  for (size_t i = 0; i < prog_.instructions.size(); ++i) {
    if (prog_.instructions[i].query_index != qi) continue;
    const SimTime arrival = SendInner(kControlBytes * 2);
    report_.control_packets++;
    const int id = static_cast<int>(i);
    eq_.ScheduleAt(arrival, [this, id] {
      InstrRt& ir = instrs_[static_cast<size_t>(id)];
      for (size_t slot = 0; slot < ir.def->operands.size(); ++slot) {
        if (ir.def->operands[slot].scan != nullptr) {
          StartStaging(id, static_cast<int>(slot));
        }
      }
      TryStart(id);
    });
  }
}

// ---------------------------------------------------------------------------
// Base-operand staging through the storage hierarchy
// ---------------------------------------------------------------------------

void Sim::StartStaging(int instr_id, int slot) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  const MachineOperand& mop = ir.def->operands[static_cast<size_t>(slot)];
  // Every query reads the snapshot TryAdmitWaiting stamped on it. The
  // scan's plan consumer is the restrict folded into this operand, else
  // the instruction itself.
  auto opened = OpenScan(
      storage_, query_snapshots_[ir.def->query_index], *mop.scan,
      mop.filter != nullptr ? mop.filter : ir.def->node, &report_.index,
      &report_.pushdown);
  if (!opened.ok()) {
    Fail(opened.status().WithContext("staging snapshot view " +
                                     mop.scan->relation));
    CompleteOperand(instr_id, slot);
    return;
  }
  ir.operands[static_cast<size_t>(slot)].pushdown_pred =
      std::move(opened->pushdown);
  StageNextRawPage(
      instr_id, slot,
      std::make_shared<std::vector<PageId>>(std::move(opened->pages)), 0);
}

void Sim::StageNextRawPage(int instr_id, int slot,
                           std::shared_ptr<std::vector<PageId>> ids,
                           size_t idx) {
  if (idx >= ids->size()) {
    CompleteOperand(instr_id, slot);
    return;
  }
  const PageId raw_id = (*ids)[idx];
  auto raw = storage_->page_store().Get(raw_id);
  if (!raw.ok()) {
    Fail(raw.status().WithContext("staging read"));
    CompleteOperand(instr_id, slot);
    return;
  }
  const int64_t bytes = (*raw)->payload_bytes();
  page_sizes_.emplace(raw_id, bytes);
  PagePtr page = *std::move(raw);
  // Near-data pushdown: the compiled restrict runs at the cache port. The
  // filter logic streams the whole page, but only survivors cross into IC
  // memory, so the transfer (and everything downstream — repacked units,
  // ring packets) is charged for surviving bytes only. The survivors are
  // packed once, at arrival (RepackInto).
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  OperandRt& op = ir.operands[static_cast<size_t>(slot)];
  const bool pushed = op.pushdown_pred.has_value();
  int64_t transfer = bytes;
  if (pushed) {
    const uint64_t kept = CountMatches(*op.pushdown_pred, *page);
    transfer = static_cast<int64_t>(kept) * page->tuple_width();
    report_.pushdown.pages_filtered++;
    report_.pushdown.tuples_in += static_cast<uint64_t>(page->num_tuples());
    report_.pushdown.tuples_out += kept;
    report_.pushdown.bytes_elided += static_cast<uint64_t>(bytes - transfer);
  }
  SimTime arrival;
  if (disk_cache_.Touch(raw_id)) {
    // Disk-cache hit: only the cache -> IC transfer.
    report_.bytes.cache_to_ic += static_cast<uint64_t>(transfer);
    arrival = eq_.now() +
              (pushed ? cfg_.cache.FilteredAccessTime(bytes, transfer)
                      : cfg_.cache.AccessTime(bytes)) +
              CacheStallPenalty();
  } else {
    // Read from a drive into the cache, then to the IC. Positioning is
    // charged on the first page of a run and every 10th page thereafter
    // (cylinder crossings); intermediate pages stream sequentially. Drives
    // have no filter logic, so the full page always crosses disk -> cache.
    const std::string& rel =
        ir.def->operands[static_cast<size_t>(slot)].scan->relation;
    SerialResource& drive =
        drives_[Hash64(rel.data(), rel.size()) % drives_.size()];
    const bool position = (idx % 10) == 0;
    const SimTime service =
        position ? cfg_.disk.AccessTime(bytes) : cfg_.disk.SequentialTime(bytes);
    const SimTime disk_done = drive.Acquire(eq_.now(), service);
    report_.bytes.disk_read += static_cast<uint64_t>(bytes);
    SpillToCache(raw_id);
    report_.bytes.cache_to_ic += static_cast<uint64_t>(transfer);
    arrival = disk_done +
              (pushed ? cfg_.cache.FilteredAccessTime(bytes, transfer)
                      : cfg_.cache.AccessTime(bytes)) +
              CacheStallPenalty();
  }
  eq_.ScheduleAt(arrival, [this, instr_id, slot, ids, idx, page] {
    RepackInto(instr_id, slot, page);
    StageNextRawPage(instr_id, slot, ids, idx + 1);
  });
}

void Sim::RepackInto(int instr_id, int slot, const PagePtr& raw) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  OperandRt& op = ir.operands[static_cast<size_t>(slot)];
  // A folded restrict filters here, while the IC compacts staged tuples
  // into machine units: the consumer sees the same filtered operand stream
  // it would get from a restrict instruction, minus that instruction's IP
  // occupancy and ring crossings. A pushed-down scan's raw page is filtered
  // here too, by the predicate that sized its transfer; when a restrict is
  // folded, that is the same predicate, so one pass serves both.
  const std::optional<CompiledPredicate>& folded =
      ir.def->operands[static_cast<size_t>(slot)].filter_pred;
  const CompiledPredicate* filter = nullptr;
  if (folded.has_value()) {
    report_.pipeline_fused_pages++;
    filter = &*folded;
  } else if (op.pushdown_pred.has_value()) {
    filter = &*op.pushdown_pred;
  }
  Status s = filter != nullptr ? RestrictPage(*filter, *raw, op.packer.get())
                               : op.packer->EmitPage(raw);
  if (!s.ok()) Fail(s);
}

void Sim::DeliverOperandPage(int instr_id, int slot, StagedPage staged) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  OperandRt& op = ir.operands[static_cast<size_t>(slot)];
  if (ir.def->operands[static_cast<size_t>(slot)].filter != nullptr) {
    // This unit arrived pre-filtered: the folded restrict would have built,
    // shipped, and repacked an equivalent intermediate page.
    report_.pipeline_pages_elided++;
  }
  InsertLocal(&ics_[static_cast<size_t>(ir.ic)], staged.uid,
              staged.page->payload_bytes());
  if (ir.def->op == PlanOp::kJoin && slot == 1) {
    // Every join step against this inner page probes one table.
    ir.inner_tables.push_back(ir.program->BuildInnerTable(*staged.page));
  }
  op.pages.push_back(std::move(staged));
  if (ir.phase == InstrPhase::kWaiting) {
    TryStart(instr_id);
  } else if (ir.phase == InstrPhase::kRunning) {
    if (ir.def->op == PlanOp::kJoin && slot == 1) {
      BroadcastInner(instr_id, op.pages.size() - 1);
    }
    DispatchWork(instr_id);
  }
}

void Sim::CompleteOperand(int instr_id, int slot) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  OperandRt& op = ir.operands[static_cast<size_t>(slot)];
  op.packer->Flush();
  op.complete = true;
  if (ir.phase == InstrPhase::kWaiting) {
    TryStart(instr_id);
  } else if (ir.phase == InstrPhase::kRunning) {
    if (ir.def->op == PlanOp::kJoin && slot == 1) {
      NotifyInnerComplete(instr_id);
    }
    DispatchWork(instr_id);
    MaybeFlush(instr_id);
  }
}

// ---------------------------------------------------------------------------
// Enablement and IP allocation
// ---------------------------------------------------------------------------

void Sim::TryStart(int instr_id) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  if (ir.phase != InstrPhase::kWaiting) return;
  const bool relation_mode =
      opt_.granularity == Granularity::kRelation || IsBarrier(ir);
  for (const OperandRt& op : ir.operands) {
    if (relation_mode) {
      if (!op.complete) return;
    } else {
      // Page (and tuple) granularity: "as soon as at least one page of each
      // participating relation(s) exists" (Section 3.2).
      if (op.pages.empty() && !op.complete) return;
    }
  }
  ir.phase = InstrPhase::kRunning;
  RequestIps(instr_id);
}

void Sim::RequestIps(int instr_id) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  if (ir.request_outstanding || ir.phase != InstrPhase::kRunning) return;
  ir.request_outstanding = true;
  report_.control_packets++;
  const SimTime arrival = SendInner(kControlBytes);
  eq_.ScheduleAt(arrival, [this, instr_id] { HandleIpRequestAtMc(instr_id); });
}

void Sim::HandleIpRequestAtMc(int instr_id) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  if (ir.phase == InstrPhase::kFinished) {
    ir.request_outstanding = false;
    return;
  }
  // Fair share: "insuring that processors are distributed across all nodes
  // in the query tree" (Section 4.1). The policy is work-conserving: an
  // instruction above its share may still claim one processor from an
  // otherwise idle pool.
  int active = 0;
  for (const InstrRt& other : instrs_) {
    if (other.phase == InstrPhase::kRunning ||
        other.phase == InstrPhase::kFlushing) {
      ++active;
    }
  }
  const int share = std::max(
      1, cfg_.num_instruction_processors / std::max(1, active));
  int desired = 0;
  if (ir.def->op == PlanOp::kJoin) {
    desired = static_cast<int>(ir.operands[0].pages.size() -
                               ir.operands[0].next_unassigned +
                               ir.requeued_outers.size());
  } else {
    for (const OperandRt& op : ir.operands) {
      desired += static_cast<int>(StreamUnits(ir, op) - op.next_unassigned);
    }
    desired += static_cast<int>(ir.lost_units.size());
  }
  desired = std::max(desired, 1);
  if (IsBarrier(ir)) desired = 1;
  if (IsParallelProject(ir)) desired = std::min(desired, PartitionsOf(ir));
  const int have = static_cast<int>(ir.ips.size());
  int want = std::min(desired, std::max(1, share - have));
  if (IsBarrier(ir) && have >= 1) want = 0;
  int granted = 0;
  std::vector<int> grant;
  while (granted < want && !free_ips_.empty()) {
    grant.push_back(free_ips_.front());
    free_ips_.pop_front();
    ++granted;
  }
  if (granted == 0 && want == 0) {
    ir.request_outstanding = false;
    DispatchWork(instr_id);
    MaybeFlush(instr_id);
    return;
  }
  if (granted == 0) {
    // "When another instruction has terminated, the MC will send the
    // remaining requested resources to the IC." Additionally, the MC
    // reclaims processors idling at instructions whose operand streams
    // have momentarily run dry, so a starved request cannot deadlock
    // against held-but-idle processors.
    pending_requests_.push_back(instr_id);
    ReclaimIdleIps();
    return;
  }
  // Bind the processors immediately so the pool stays consistent; the IC
  // only uses them once the grant message arrives.
  const int width = std::max(1, ir.def->output_schema.tuple_width());
  for (int ip : grant) {
    IpRt& bound = ips_[static_cast<size_t>(ip)];
    bound.instr = instr_id;
    bound.flush_sent = false;
    bound.results = std::make_unique<PagePacker>(
        0, width, UnitBytes(opt_.granularity, cfg_.page_bytes, width),
        [this, ip](PagePtr page) {
          ips_[static_cast<size_t>(ip)].sealed.push_back(std::move(page));
        });
    ir.ips.push_back(ip);
    Tr(obs::TraceEventKind::kTaskClaimed, instr_id, ip, 0, "ip-grant");
  }
  report_.control_packets++;
  const SimTime arrival = SendInner(kControlBytes);
  eq_.ScheduleAt(arrival, [this, instr_id] { GrantArrive(instr_id); });
}

void Sim::GrantArrive(int instr_id) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  ir.request_outstanding = false;
  if (ir.phase == InstrPhase::kFinished) return;
  DispatchWork(instr_id);
  MaybeFlush(instr_id);
}

void Sim::ReleaseIdleIp(int instr_id, int ip_id) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  auto it = std::find(ir.ips.begin(), ir.ips.end(), ip_id);
  if (it == ir.ips.end()) return;
  IpRt& ip = ips_[static_cast<size_t>(ip_id)];
  // Ship any buffered partial result before the IP changes hands.
  ShipResultBuffer(instr_id, &ip);
  ir.ips.erase(it);
  ip.instr = -1;
  free_ips_.push_back(ip_id);
  report_.control_packets++;
  (void)SendInner(kControlBytes);  // Release message to the MC.
  PumpPendingRequests();
}

void Sim::ReleaseAllIps(int instr_id) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  for (int ip_id : ir.ips) {
    IpRt& ip = ips_[static_cast<size_t>(ip_id)];
    ip.instr = -1;
    ip.results.reset();
    ip.has_outer = false;
    ip.irc.Resize(0);
    ip.pending_inner.clear();
    free_ips_.push_back(ip_id);
  }
  if (!ir.ips.empty()) {
    report_.control_packets++;
    (void)SendInner(kControlBytes);
  }
  ir.ips.clear();
  PumpPendingRequests();
}

void Sim::PumpPendingRequests() {
  // Serve queued IP requests now that processors freed up.
  std::deque<int> pending;
  pending.swap(pending_requests_);
  for (int instr_id : pending) {
    HandleIpRequestAtMc(instr_id);
  }
}

void Sim::ReclaimIdleIps() {
  if (in_reclaim_) return;
  in_reclaim_ = true;
  for (size_t i = 0; i < instrs_.size(); ++i) {
    InstrRt& ir = instrs_[i];
    if (ir.phase != InstrPhase::kRunning) continue;
    const bool is_join = ir.def->op == PlanOp::kJoin;
    const bool has_work =
        is_join
            ? (ir.operands[0].next_unassigned < ir.operands[0].pages.size() ||
               !ir.requeued_outers.empty())
            : HasStreamWork(ir);
    std::vector<int> idle;
    for (int ip_id : ir.ips) {
      IpRt& ip = ips_[static_cast<size_t>(ip_id)];
      if (ip.busy || ip.flush_sent) continue;
      if (is_join && ip.has_outer) {
        // A join IP stuck mid-outer (every staged inner page already
        // joined, inner relation incomplete) is reclaimed regardless of
        // other pending outer work: it cannot progress until the inner
        // producer runs, and the producer may be the starved requester.
        // Its outer page and IRC progress are stashed and resumed later.
        const OperandRt& inner = ir.operands[1];
        if (!inner.complete && ip.pending_inner.empty() &&
            ip.irc.size() >= inner.pages.size() &&
            ip.irc.Count() >= inner.pages.size()) {
          NormalizeRequeuedOuter(&ir, ip.outer_idx);
          ir.requeued_outers.emplace_back(ip.outer_idx, ip.irc);
          ip.has_outer = false;
          ip.irc.Resize(0);
          idle.push_back(ip_id);
        }
        continue;
      }
      // A plainly idle IP is released only when its instruction's operand
      // stream has run dry.
      if (!has_work) idle.push_back(ip_id);
    }
    for (int ip_id : idle) {
      ReleaseIdleIp(static_cast<int>(i), ip_id);
    }
  }
  in_reclaim_ = false;
}

// ---------------------------------------------------------------------------
// Work dispatch
// ---------------------------------------------------------------------------

std::optional<std::pair<int, size_t>> Sim::NextStreamPage(InstrRt* ir) {
  // Units stranded on a dead processor go out first: they are behind the
  // stream cursor, so nothing else would ever hand them out again.
  if (!ir->lost_units.empty()) {
    auto unit = ir->lost_units.front();
    ir->lost_units.pop_front();
    return unit;
  }
  // Barrier difference consumes the subtrahend (slot 1) before the left
  // input; every other operator streams its slots in order.
  std::vector<int> order;
  if (ir->def->op == PlanOp::kDifference) {
    order = {1, 0};
  } else {
    for (size_t i = 0; i < ir->operands.size(); ++i) {
      order.push_back(static_cast<int>(i));
    }
  }
  for (int slot : order) {
    OperandRt& op = ir->operands[static_cast<size_t>(slot)];
    // The cursor counts units: page index x partition (PartitionsOf == 1
    // everywhere except the parallel project).
    if (op.next_unassigned < StreamUnits(*ir, op)) {
      return std::make_pair(slot, op.next_unassigned++);
    }
    if (ir->def->op == PlanOp::kDifference && slot == 1 && !op.complete) {
      // Cannot start the left side until the right side is complete.
      return std::nullopt;
    }
  }
  return std::nullopt;
}

void Sim::DispatchWork(int instr_id) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  if (ir.phase != InstrPhase::kRunning) return;
  const bool is_join = ir.def->op == PlanOp::kJoin;
  for (int ip_id : ir.ips) {
    IpRt& ip = ips_[static_cast<size_t>(ip_id)];
    if (ip.busy || ip.flush_sent) continue;
    if (is_join) {
      if (ip.has_outer) continue;
      OperandRt& outer = ir.operands[0];
      if (!ir.requeued_outers.empty()) {
        auto [idx, irc] = std::move(ir.requeued_outers.back());
        ir.requeued_outers.pop_back();
        SendJoinAssign(instr_id, ip_id, idx, &irc);
      } else if (outer.next_unassigned < outer.pages.size()) {
        SendJoinAssign(instr_id, ip_id, outer.next_unassigned++);
      }
    } else {
      auto next = NextStreamPage(&ir);
      if (!next.has_value()) break;
      SendUnaryPacket(instr_id, ip_id, next->first, next->second);
    }
  }
  const bool has_work =
      is_join ? (ir.operands[0].next_unassigned < ir.operands[0].pages.size() ||
                 !ir.requeued_outers.empty())
              : HasStreamWork(ir);
  // Work remains beyond what the current processors absorbed: ask the MC
  // for more (it applies the fair-share policy). Barrier instructions are
  // capped at one processor and never re-request.
  if (has_work && !(IsBarrier(ir) && !ir.ips.empty())) {
    RequestIps(instr_id);
  }
  // No hold-and-wait: while other instructions are starved of processors,
  // an IP idling here (its operand stream has momentarily run dry) goes
  // back to the MC pool; it will be re-requested when work arrives.
  if (!has_work && !pending_requests_.empty()) {
    std::vector<int> idle;
    for (int ip_id : ir.ips) {
      IpRt& ip = ips_[static_cast<size_t>(ip_id)];
      if (!ip.busy && !ip.flush_sent && (!is_join || !ip.has_outer)) {
        idle.push_back(ip_id);
      }
    }
    for (int ip_id : idle) {
      ReleaseIdleIp(instr_id, ip_id);
    }
  }
}

// ---------------------------------------------------------------------------
// Streaming unary execution
// ---------------------------------------------------------------------------

void Sim::SendUnaryPacket(int instr_id, int ip_id, int slot, size_t unit_idx) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  IpRt& ip = ips_[static_cast<size_t>(ip_id)];
  OperandRt& op = ir.operands[static_cast<size_t>(slot)];
  const int parts = PartitionsOf(ir);
  const size_t page_idx = unit_idx / static_cast<size_t>(parts);
  const int partition = static_cast<int>(unit_idx % static_cast<size_t>(parts));
  StagedPage& staged = op.pages[page_idx];
  IcRt& ic = ics_[static_cast<size_t>(ir.ic)];

  const int64_t payload = staged.page->payload_bytes();
  // A parallel-project page rides the ring once, broadcast to every
  // participating IP; later partition units are header-only packets
  // telling an IP to process its partition of the already-received page.
  const bool page_rides = partition == 0 && !staged.at_ip;
  const SimTime fetch_delay =
      page_rides ? EnsureLocal(&ic, staged.uid, payload) : SimTime::Zero();
  ip.busy = true;
  ir.outstanding_packets++;
  report_.instruction_packets++;
  if (parts > 1 && partition == 0) report_.broadcasts++;
  // The page leaves the IC's working set once its last unit is dispatched.
  if (!staged.at_ip && partition == parts - 1) ic.local.Remove(staged.uid);

  const int64_t wire = page_rides ? UnaryPacketWire(payload) : kInstrHeaderBytes;
  IpRt::PendingAssign a;
  a.id = next_assign_id_++;
  a.kind = IpRt::PendingAssign::kUnary;
  a.slot = slot;
  a.unit_idx = unit_idx;
  a.wire = wire;
  ip.assign = a;
  Tr(obs::TraceEventKind::kPacketEnqueued, instr_id, ip_id, wire, "unary");
  // Charge the fetch delay before the ring insertion.
  eq_.ScheduleAfter(fetch_delay, [this, instr_id, ip_id, id = a.id] {
    TransmitAssignment(instr_id, ip_id, id);
  });
}

void Sim::IpUnaryArrive(int instr_id, int ip_id, int slot, size_t unit_idx) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  IpRt& ip = ips_[static_cast<size_t>(ip_id)];
  const int parts = PartitionsOf(ir);
  const size_t page_idx = unit_idx / static_cast<size_t>(parts);
  const int partition = static_cast<int>(unit_idx % static_cast<size_t>(parts));
  const StagedPage& staged =
      ir.operands[static_cast<size_t>(slot)].pages[page_idx];
  const Page& in = *staged.page;

  auto run = RunKernel(&ir, &ip, slot, in, nullptr, nullptr, partition);
  if (!run.ok()) {
    Fail(run.status());
    IpUnaryDone(instr_id, ip_id, {});
    return;
  }
  auto [full_pages, out_bytes] = *std::move(run);
  // A partitioned scan only touches its share of the comparisons; the page
  // scan itself is charged in full (every tuple is hashed and examined).
  const SimTime service =
      cfg_.processor.OperatorTime(in.payload_bytes(), out_bytes) +
      (staged.at_ip ? opt_.direct_routing_overhead : SimTime::Zero());
  const SimTime done = ip.proc.Acquire(eq_.now(), service);
  report_.ip_busy_total += service;
  Tr(obs::TraceEventKind::kTaskExecuted, instr_id, ip_id, out_bytes, "unary");
  eq_.ScheduleAt(done, [this, instr_id, ip_id,
                        pages = std::move(full_pages)]() mutable {
    IpUnaryDone(instr_id, ip_id, std::move(pages));
  });
}

void Sim::IpUnaryDone(int instr_id, int ip_id, std::vector<PagePtr> pages) {
  for (PagePtr& page : pages) {
    SendResultPage(instr_id, std::move(page));
  }
  // Done control packet back to the controlling IC.
  report_.control_packets++;
  const SimTime arrival = SendOuter(kControlBytes);
  eq_.ScheduleAt(arrival, [this, instr_id, ip_id] {
    ips_[static_cast<size_t>(ip_id)].busy = false;
    instrs_[static_cast<size_t>(instr_id)].outstanding_packets--;
    DispatchWork(instr_id);
    MaybeFlush(instr_id);
  });
}

// ---------------------------------------------------------------------------
// Join execution (Section 4.2 protocol)
// ---------------------------------------------------------------------------

void Sim::SendJoinAssign(int instr_id, int ip_id, size_t outer_idx,
                         const BitVector* resume_irc) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  IpRt& ip = ips_[static_cast<size_t>(ip_id)];
  IcRt& ic = ics_[static_cast<size_t>(ir.ic)];
  OperandRt& outer_op = ir.operands[0];
  OperandRt& inner_op = ir.operands[1];
  StagedPage& outer = outer_op.pages[outer_idx];

  ip.irc.Resize(inner_op.pages.size());
  ip.irc.ClearAll();
  if (resume_irc != nullptr) {
    // Resuming a reclaimed outer page: restore its join progress.
    for (size_t i = 0; i < resume_irc->size() && i < ip.irc.size(); ++i) {
      if (resume_irc->Get(i)) ip.irc.Set(i);
    }
  }
  // Pick the first unprocessed inner page to ship with the assignment
  // (Figure 4.3: "the two operands in the packet").
  std::optional<size_t> first_inner;
  {
    const size_t idx = ip.irc.FirstZero();
    if (idx < inner_op.pages.size()) first_inner = idx;
  }

  const int64_t outer_payload = outer.page->payload_bytes();
  const int64_t inner_payload =
      first_inner.has_value()
          ? inner_op.pages[*first_inner].page->payload_bytes()
          : 0;
  // Directly routed outer pages are already at an IP (Section 5.0).
  const bool direct_outer = outer.at_ip;
  SimTime fetch_delay = direct_outer
                            ? SimTime::Zero()
                            : EnsureLocal(&ic, outer.uid, outer_payload);
  if (first_inner.has_value()) {
    fetch_delay += EnsureLocal(&ic, inner_op.pages[*first_inner].uid,
                               inner_payload);
  }
  if (!direct_outer) ic.local.Remove(outer.uid);

  ip.busy = true;  // Busy until the assignment lands.
  ip.has_outer = true;
  ip.outer = outer;
  ip.outer_idx = outer_idx;
  ip.pending_inner.clear();
  ip.awaiting_request = false;
  report_.instruction_packets++;

  const int64_t wire =
      JoinPacketWire(direct_outer ? 0 : outer_payload, inner_payload,
                     first_inner.has_value());
  IpRt::PendingAssign a;
  a.id = next_assign_id_++;
  a.kind = IpRt::PendingAssign::kJoin;
  a.unit_idx = outer_idx;
  a.first_inner = first_inner;
  a.wire = wire;
  ip.assign = a;
  Tr(obs::TraceEventKind::kPacketEnqueued, instr_id, ip_id, wire, "join");
  eq_.ScheduleAfter(fetch_delay, [this, instr_id, ip_id, id = a.id] {
    TransmitAssignment(instr_id, ip_id, id);
  });
}

void Sim::IpJoinAssignArrive(int instr_id, int ip_id,
                             std::optional<size_t> inner_idx) {
  IpRt& ip = ips_[static_cast<size_t>(ip_id)];
  ip.busy = false;
  if (ip.outer.at_ip) {
    // The IP managed the directly routed outer page itself (Section 5.0's
    // "increased IP complexity"); charge it once.
    ip.proc.Acquire(eq_.now(), opt_.direct_routing_overhead);
    report_.ip_busy_total += opt_.direct_routing_overhead;
    ip.outer.at_ip = false;
  }
  if (inner_idx.has_value()) {
    IpStartJoinStep(instr_id, ip_id, *inner_idx);
  } else {
    IpJoinAdvance(instr_id, ip_id);
  }
}

void Sim::IpStartJoinStep(int instr_id, int ip_id, size_t inner_idx) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  IpRt& ip = ips_[static_cast<size_t>(ip_id)];
  if (ip.dead) return;  // Fail-stop: a dead station starts nothing new.
  if (ip.irc.size() <= inner_idx) {
    ip.irc.Resize(ir.operands[1].pages.size());
  }
  if (ip.irc.Get(inner_idx)) {
    IpJoinAdvance(instr_id, ip_id);
    return;
  }
  ip.busy = true;
  ip.irc.Set(inner_idx);
  const Page& outer = *ip.outer.page;
  const Page& inner = *ir.operands[1].pages[inner_idx].page;
  DFDB_CHECK(inner_idx < ir.inner_tables.size())
      << "inner page " << inner_idx << " has no join table";
  auto run = RunKernel(&ir, &ip, /*slot=*/0, outer, &inner,
                       ir.inner_tables[inner_idx].get());
  if (!run.ok()) {
    Fail(run.status());
    IpJoinStepDone(instr_id, ip_id, {});
    return;
  }
  auto [full_pages, out_bytes] = *std::move(run);
  const SimTime service = cfg_.processor.JoinStepTime(
      outer.payload_bytes(), inner.payload_bytes(), out_bytes);
  const SimTime done = ip.proc.Acquire(eq_.now(), service);
  report_.ip_busy_total += service;
  Tr(obs::TraceEventKind::kTaskExecuted, instr_id, ip_id, out_bytes,
     "join-step");
  eq_.ScheduleAt(done, [this, instr_id, ip_id,
                        pages = std::move(full_pages)]() mutable {
    IpJoinStepDone(instr_id, ip_id, std::move(pages));
  });
}

void Sim::IpJoinStepDone(int instr_id, int ip_id,
                         std::vector<PagePtr> pages) {
  IpRt& ip = ips_[static_cast<size_t>(ip_id)];
  ip.busy = false;
  for (PagePtr& page : pages) {
    SendResultPage(instr_id, std::move(page));
  }
  IpJoinAdvance(instr_id, ip_id);
}

void Sim::IpJoinAdvance(int instr_id, int ip_id) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  IpRt& ip = ips_[static_cast<size_t>(ip_id)];
  if (ip.dead) return;  // Its held outer is salvaged at detection time.
  if (!ip.has_outer || ip.busy) return;
  // Opportunistic: process any broadcast page already queued locally.
  while (!ip.pending_inner.empty()) {
    const size_t idx = ip.pending_inner.front();
    ip.pending_inner.pop_front();
    if (ip.irc.size() <= idx || !ip.irc.Get(idx)) {
      IpStartJoinStep(instr_id, ip_id, idx);
      return;
    }
  }
  const OperandRt& inner_op = ir.operands[1];
  ip.irc.Resize(inner_op.pages.size());
  if (inner_op.complete) {
    const size_t missing = ip.irc.FirstZero();
    if (missing < ip.irc.size()) {
      // "Scan its IRC vector and then proceed to request those pages which
      // it missed."
      if (!ip.awaiting_request) {
        ip.awaiting_request = true;
        report_.control_packets++;
        const SimTime arrival = SendOuter(kControlBytes);
        eq_.ScheduleAt(arrival, [this, instr_id, missing] {
          IcHandlePageRequest(instr_id, missing);
        });
      }
      return;
    }
    // Outer page fully joined: "zero its IRC vector and then signal the IC
    // that it is ready for another page of the outer relation".
    IpOuterDone(instr_id, ip_id);
    return;
  }
  // Inner incomplete: request the next page beyond what we have seen (the
  // IC responds by broadcasting when it arrives; quiesce until then).
  if (!ip.awaiting_request && ip.irc.size() > 0 &&
      ip.irc.FirstZero() < ip.irc.size()) {
    const size_t missing = ip.irc.FirstZero();
    ip.awaiting_request = true;
    report_.control_packets++;
    const SimTime arrival = SendOuter(kControlBytes);
    eq_.ScheduleAt(arrival, [this, instr_id, missing] {
      IcHandlePageRequest(instr_id, missing);
    });
    return;
  }
  // Quiescing mid-outer (all staged inner pages joined, inner relation
  // incomplete) while other instructions are starved at the MC: hand the
  // processor back instead of hold-and-wait. The outer page resumes later
  // with its IRC progress intact.
  if (!pending_requests_.empty() && ip.has_outer && !ip.busy &&
      ip.pending_inner.empty() && !inner_op.complete &&
      ip.irc.Count() >= inner_op.pages.size()) {
    NormalizeRequeuedOuter(&ir, ip.outer_idx);
    ir.requeued_outers.emplace_back(ip.outer_idx, ip.irc);
    ip.has_outer = false;
    ip.irc.Resize(0);
    ReleaseIdleIp(instr_id, ip_id);
  }
}

void Sim::IpOuterDone(int instr_id, int ip_id) {
  IpRt& ip = ips_[static_cast<size_t>(ip_id)];
  ip.has_outer = false;
  ip.irc.ClearAll();
  ip.pending_inner.clear();
  report_.control_packets++;
  const SimTime arrival = SendOuter(kControlBytes);
  eq_.ScheduleAt(arrival, [this, instr_id] {
    InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
    ir.outer_done++;
    DispatchWork(instr_id);
    MaybeFlush(instr_id);
  });
}

void Sim::IcHandlePageRequest(int instr_id, size_t inner_idx) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  if (ir.phase == InstrPhase::kFinished) return;
  OperandRt& inner_op = ir.operands[1];
  if (inner_idx >= inner_op.pages.size()) {
    // Page not staged yet; it will be broadcast on arrival.
    for (int ip_id : ir.ips) {
      ips_[static_cast<size_t>(ip_id)].awaiting_request = false;
    }
    return;
  }
  // Suppress duplicates while a broadcast of this page is in flight:
  // "Subsequent requests for the same page which are received by the IC
  // 'soon' afterwards can be ignored."
  if (inner_idx < ir.inner_bcast_until.size() &&
      ir.inner_bcast_until[inner_idx] > eq_.now()) {
    return;
  }
  BroadcastInner(instr_id, inner_idx);
}

void Sim::BroadcastInner(int instr_id, size_t inner_idx) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  if (ir.phase != InstrPhase::kRunning) return;
  OperandRt& inner_op = ir.operands[1];
  IcRt& ic = ics_[static_cast<size_t>(ir.ic)];
  StagedPage& staged = inner_op.pages[inner_idx];
  const int64_t payload = staged.page->payload_bytes();
  const SimTime fetch_delay = EnsureLocal(&ic, staged.uid, payload);
  const int64_t wire = UnaryPacketWire(payload);

  if (ir.inner_bcast_until.size() <= inner_idx) {
    ir.inner_bcast_until.resize(inner_idx + 1, SimTime::Zero());
  }

  auto deliver = [this, instr_id, inner_idx](SimTime arrival) {
    InstrRt& ir2 = instrs_[static_cast<size_t>(instr_id)];
    ir2.inner_bcast_until[inner_idx] = arrival;
    eq_.ScheduleAt(arrival, [this, instr_id, inner_idx] {
      InstrRt& ir3 = instrs_[static_cast<size_t>(instr_id)];
      if (ir3.phase != InstrPhase::kRunning) return;
      for (int ip_id : ir3.ips) {
        IpRt& ip = ips_[static_cast<size_t>(ip_id)];
        if (ip.dead) continue;  // Broadcast falls on deaf ears.
        ip.awaiting_request = false;
        if (!ip.has_outer) continue;
        ip.irc.Resize(ir3.operands[1].pages.size());
        if (ip.irc.Get(inner_idx)) continue;
        if (!ip.busy) {
          IpStartJoinStep(instr_id, ip_id, inner_idx);
        } else if (ip.pending_inner.size() < 2) {
          // Local memory can hold the broadcast page for later.
          ip.pending_inner.push_back(inner_idx);
        }
        // Otherwise the IP "ignores the packet" and will request the page
        // after seeing the last-page marker (IRC catch-up).
      }
    });
  };

  if (opt_.broadcast_join) {
    // One ring insertion reaches every participating IP (requirement 4).
    report_.broadcasts++;
    Tr(obs::TraceEventKind::kPacketEnqueued, instr_id, -1, wire, "broadcast");
    eq_.ScheduleAfter(fetch_delay, [this, wire, deliver] {
      deliver(SendOuter(wire));
    });
  } else {
    // Ablation: unicast the page to each IP separately.
    const size_t n = std::max<size_t>(1, ir.ips.size());
    Tr(obs::TraceEventKind::kPacketEnqueued, instr_id, -1,
       wire * static_cast<int64_t>(n), "unicast-inner");
    eq_.ScheduleAfter(fetch_delay, [this, wire, deliver, n] {
      SimTime last;
      for (size_t i = 0; i < n; ++i) {
        last = SendOuter(wire);
      }
      deliver(last);
    });
  }
}

void Sim::NotifyInnerComplete(int instr_id) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  if (ir.inner_complete_sent) return;
  ir.inner_complete_sent = true;
  // Small broadcast: "a packet ... which indicates that this is the last
  // page of the inner relation."
  report_.control_packets++;
  const SimTime arrival = SendOuter(kControlBytes);
  eq_.ScheduleAt(arrival, [this, instr_id] {
    InstrRt& ir2 = instrs_[static_cast<size_t>(instr_id)];
    for (int ip_id : ir2.ips) {
      IpJoinAdvance(instr_id, ip_id);
    }
    MaybeFlush(instr_id);
  });
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

void Sim::SendResultPage(int instr_id, PagePtr page) {
  report_.result_packets++;
  const int64_t wire = ResultPacketWire(page->payload_bytes());
  Tr(obs::TraceEventKind::kPageProduced, instr_id, -1, page->payload_bytes(),
     nullptr);
  const SimTime arrival = SendOuter(wire);
  eq_.ScheduleAt(arrival, [this, instr_id, page = std::move(page)] {
    DeliverResult(instr_id, page);
  });
}

void Sim::DeliverResult(int producer_instr, PagePtr page) {
  const MachineInstruction& def =
      prog_.instructions[static_cast<size_t>(producer_instr)];
  if (def.consumer < 0) {
    // Root: results stream to the host through the MC.
    report_.results[def.query_index].AddPage(std::move(page));
    return;
  }
  // Section 5.0 direct routing: a streaming (non-join, non-barrier)
  // consumer can take the page at an IP directly; the IC only learns of it
  // via a notification and skips both the compression step and the later
  // full-page instruction packet.
  // Eligible consumers: streaming unary operators, and the OUTER side of a
  // join (outer pages are handed to one IP each; the inner side must stay
  // IC-controlled for the broadcast protocol).
  const MachineInstruction& consumer =
      prog_.instructions[static_cast<size_t>(def.consumer)];
  // Only full pages travel directly ("route SOME of the data pages"):
  // partial flush pages still go to the IC so they can be compressed into
  // full pages — otherwise fragment outers would multiply join work.
  InstrRt& consumer_rt = instrs_[static_cast<size_t>(def.consumer)];
  const bool eligible =
      (consumer.op == PlanOp::kJoin ? def.consumer_slot == 0
                                    : !consumer.barrier) &&
      // Parallel-project pages must reach the IC: every partition's IP
      // needs them, so a single-IP delivery would strand the page.
      !IsParallelProject(consumer_rt) && page->full();
  if (opt_.ip_direct_routing && eligible && page->num_tuples() > 0) {
    report_.direct_routes++;
    report_.control_packets++;
    (void)SendOuter(kControlBytes);  // Notification to the controlling IC.
    InstrRt& ir = instrs_[static_cast<size_t>(def.consumer)];
    OperandRt& op = ir.operands[static_cast<size_t>(def.consumer_slot)];
    StagedPage staged{std::move(page), NextUid(), /*at_ip=*/true};
    page_sizes_.emplace(staged.uid, staged.page->payload_bytes());
    op.pages.push_back(std::move(staged));
    if (ir.phase == InstrPhase::kWaiting) {
      TryStart(def.consumer);
    } else if (ir.phase == InstrPhase::kRunning) {
      DispatchWork(def.consumer);
    }
    return;
  }
  // Repack into the consumer's operand units (the ICs "compress [pages] to
  // form full pages").
  RepackInto(def.consumer, def.consumer_slot, page);
}

// ---------------------------------------------------------------------------
// Flush and finish
// ---------------------------------------------------------------------------

void Sim::MaybeFlush(int instr_id) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  if (ir.phase != InstrPhase::kRunning) return;
  for (const OperandRt& op : ir.operands) {
    if (!op.complete) return;
  }
  if (ir.def->op == PlanOp::kJoin) {
    const OperandRt& outer = ir.operands[0];
    if (outer.next_unassigned < outer.pages.size()) return;
    if (ir.outer_done < outer.pages.size()) return;
  } else {
    if (!ir.lost_units.empty()) return;
    for (const OperandRt& op : ir.operands) {
      if (op.next_unassigned < StreamUnits(ir, op)) return;
    }
    if (ir.outstanding_packets > 0) return;
  }
  if (ir.request_outstanding) {
    // A request parked in the MC's queue can be withdrawn (there is no
    // work left for the processors it asked for); a grant already in
    // flight will re-trigger this check on arrival.
    auto it = std::find(pending_requests_.begin(), pending_requests_.end(),
                        instr_id);
    if (it == pending_requests_.end()) return;
    pending_requests_.erase(it);
    ir.request_outstanding = false;
  }
  ir.phase = InstrPhase::kFlushing;
  if (ir.ips.empty()) {
    // An aggregate's groups materialize at flush time; with no processor
    // bound (all reclaimed or dead) the finish step still needs one.
    if (ir.program->finish_pending() && live_ips_ > 0) {
      ir.phase = InstrPhase::kRunning;
      RequestIps(instr_id);
      return;
    }
    FinishInstr(instr_id);
    return;
  }
  ir.unflushed = static_cast<int>(ir.ips.size());
  for (int ip_id : ir.ips) {
    SendFlush(instr_id, ip_id);
  }
}

void Sim::SendFlush(int instr_id, int ip_id) {
  IpRt& ip = ips_[static_cast<size_t>(ip_id)];
  ip.flush_sent = true;
  report_.instruction_packets++;
  // Header-only instruction packet with flush-when-done set.
  IpRt::PendingAssign a;
  a.id = next_assign_id_++;
  a.kind = IpRt::PendingAssign::kFlush;
  a.wire = kInstrHeaderBytes;
  ip.assign = a;
  TransmitAssignment(instr_id, ip_id, a.id);
}

void Sim::IpFlushArrive(int instr_id, int ip_id) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  IpRt& ip = ips_[static_cast<size_t>(ip_id)];
  // Aggregates materialize their groups at flush time on the single
  // barrier IP.
  Status s = ir.program->Finish(ip.results.get());
  if (!s.ok()) Fail(s);
  ShipResultBuffer(instr_id, &ip);
  Tr(obs::TraceEventKind::kTaskExecuted, instr_id, ip_id, 0, "flush");
  const SimTime service = cfg_.processor.packet_overhead;
  const SimTime done = ip.proc.Acquire(eq_.now(), service);
  report_.ip_busy_total += service;
  report_.control_packets++;
  eq_.ScheduleAt(done, [this, instr_id] {
    const SimTime arrival = SendOuter(kControlBytes);
    eq_.ScheduleAt(arrival, [this, instr_id] {
      InstrRt& ir2 = instrs_[static_cast<size_t>(instr_id)];
      if (--ir2.unflushed == 0) {
        FinishInstr(instr_id);
      }
    });
  });
}

void Sim::FinishInstr(int instr_id) {
  InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
  if (ir.phase == InstrPhase::kFinished) return;
  ir.phase = InstrPhase::kFinished;

  // Deferred storage effect (delete, append).
  Status effect = ir.program->ApplyEffect();
  if (!effect.ok()) Fail(effect);

  // Free the inner relation and any remaining residency.
  IcRt& ic = ics_[static_cast<size_t>(ir.ic)];
  for (OperandRt& op : ir.operands) {
    for (StagedPage& p : op.pages) {
      ic.local.Remove(p.uid);
    }
  }

  ReleaseAllIps(instr_id);

  if (ir.def->consumer >= 0) {
    // Tell the consumer's IC that this operand is complete (a small
    // message following the last result page on the ring, so ordering is
    // preserved by the ring's FIFO service).
    report_.control_packets++;
    const SimTime arrival = SendOuter(kControlBytes);
    const int consumer = ir.def->consumer;
    const int slot = ir.def->consumer_slot;
    eq_.ScheduleAt(arrival, [this, consumer, slot] {
      CompleteOperand(consumer, slot);
    });
  } else {
    // Root of a query: completion reaches the host via the MC.
    const size_t qi = ir.def->query_index;
    report_.control_packets++;
    const SimTime arrival = SendOuter(kControlBytes);
    eq_.ScheduleAt(arrival, [this, qi] {
      report_.query_completion[qi] = eq_.now();
      query_snapshots_[qi].Release();
      conflicts_.Release(qi + 1);
      --active_queries_;
      TryAdmitWaiting();
    });
  }
}

// ---------------------------------------------------------------------------
// Fault injection and recovery
// ---------------------------------------------------------------------------

void Sim::ArmFaults() {
  if (!injector_.active()) return;
  const int num_ips = cfg_.num_instruction_processors;
  const int num_ics = cfg_.num_instruction_controllers;
  int rr_ip = 0;
  int rr_ic = 0;
  for (const FaultEvent& ev : injector_.plan().events) {
    switch (ev.type) {
      case FaultType::kKillIp: {
        const int target =
            ev.target >= 0 ? ev.target % num_ips : (rr_ip++ % num_ips);
        eq_.ScheduleAt(ev.at, [this, target] { KillIp(target); });
        break;
      }
      case FaultType::kFailIc: {
        const int target =
            ev.target >= 0 ? ev.target % num_ics : (rr_ic++ % num_ics);
        eq_.ScheduleAt(ev.at, [this, target] { FailIc(target); });
        break;
      }
      case FaultType::kStallCache:
        eq_.ScheduleAt(ev.at,
                       [this, d = ev.duration] { InjectCacheStall(d); });
        break;
      case FaultType::kDropPacket:
      case FaultType::kCorruptPacket:
        break;  // Armed inside the injector, consumed per packet.
    }
  }
}

void Sim::TransmitAssignment(int instr_id, int ip_id, uint64_t assign_id) {
  IpRt& ip = ips_[static_cast<size_t>(ip_id)];
  if (!ip.assign.has_value() || ip.assign->id != assign_id) return;
  const IpRt::PendingAssign& a = *ip.assign;
  const int attempt = a.attempts;
  const auto fate =
      injector_.active()
          ? injector_.OnAssignmentPacket(eq_.now(), &report_.faults)
          : FaultInjector::PacketFate::kDeliver;
  // The ring insertion is charged even when the packet is lost in transit.
  const SimTime arrival = SendOuter(a.wire);
  switch (fate) {
    case FaultInjector::PacketFate::kDeliver:
      eq_.ScheduleAt(arrival, [this, instr_id, ip_id, assign_id] {
        AssignmentArrive(instr_id, ip_id, assign_id);
      });
      break;
    case FaultInjector::PacketFate::kDrop:
      Tr(obs::TraceEventKind::kFaultInjected, instr_id, ip_id, a.wire,
         "drop-packet");
      break;  // Vanishes; the IC's watchdog notices.
    case FaultInjector::PacketFate::kCorrupt:
      Tr(obs::TraceEventKind::kFaultInjected, instr_id, ip_id, a.wire,
         "corrupt-packet");
      // Checksum failure at the IP, which NACKs; the IC retransmits
      // (charged against the same retry budget as a timeout would be).
      eq_.ScheduleAt(arrival, [this, instr_id, ip_id, assign_id, attempt] {
        if (ips_[static_cast<size_t>(ip_id)].dead) return;
        report_.control_packets++;
        const SimTime back = SendOuter(kControlBytes);
        eq_.ScheduleAt(back, [this, instr_id, ip_id, assign_id, attempt] {
          RetryAssignment(instr_id, ip_id, assign_id, attempt);
        });
      });
      break;
  }
  if (injector_.active()) {
    // Watchdog armed past the would-be arrival, so a healthy delivery
    // always acknowledges first: zero false positives under congestion.
    eq_.ScheduleAt(arrival + injector_.plan().detection_timeout,
                   [this, instr_id, ip_id, assign_id, attempt] {
                     AssignmentTimeout(instr_id, ip_id, assign_id, attempt);
                   });
  }
}

void Sim::AssignmentArrive(int instr_id, int ip_id, uint64_t assign_id) {
  IpRt& ip = ips_[static_cast<size_t>(ip_id)];
  if (!ip.assign.has_value() || ip.assign->id != assign_id) return;
  if (ip.dead) return;  // Fail-stop: never accepted, salvaged at detection.
  const IpRt::PendingAssign a = *ip.assign;
  ip.assign.reset();  // Acceptance — this is what the watchdog checks.
  Tr(obs::TraceEventKind::kPacketDelivered, instr_id, ip_id, a.wire, nullptr);
  if (injector_.active()) {
    report_.control_packets++;
    (void)SendOuter(kControlBytes);  // Acknowledgement back to the IC.
  }
  switch (a.kind) {
    case IpRt::PendingAssign::kUnary:
      IpUnaryArrive(instr_id, ip_id, a.slot, a.unit_idx);
      break;
    case IpRt::PendingAssign::kJoin:
      IpJoinAssignArrive(instr_id, ip_id, a.first_inner);
      break;
    case IpRt::PendingAssign::kFlush:
      IpFlushArrive(instr_id, ip_id);
      break;
  }
}

void Sim::AssignmentTimeout(int instr_id, int ip_id, uint64_t assign_id,
                            int attempt) {
  IpRt& ip = ips_[static_cast<size_t>(ip_id)];
  if (!ip.assign.has_value() || ip.assign->id != assign_id ||
      ip.assign->attempts != attempt) {
    return;  // Acknowledged, already retried, or salvaged.
  }
  report_.faults.timeouts++;
  if (ip.dead) {
    DeclareIpDead(ip_id);
    return;
  }
  RetryAssignment(instr_id, ip_id, assign_id, attempt);
}

void Sim::RetryAssignment(int instr_id, int ip_id, uint64_t assign_id,
                          int attempt) {
  IpRt& ip = ips_[static_cast<size_t>(ip_id)];
  if (!ip.assign.has_value() || ip.assign->id != assign_id ||
      ip.assign->attempts != attempt) {
    return;
  }
  if (ip.dead) {
    DeclareIpDead(ip_id);
    return;
  }
  IpRt::PendingAssign& a = *ip.assign;
  if (a.attempts > injector_.plan().max_retries) {
    Fail(Status::Unavailable(StrFormat(
        "assignment to IP %d lost after %d transmissions (instr %d)", ip_id,
        a.attempts, instr_id)));
    return;
  }
  const SimTime backoff =
      injector_.plan().retry_backoff *
      static_cast<int64_t>(1ll << std::min(a.attempts - 1, 16));
  a.attempts++;
  report_.faults.retries++;
  Tr(obs::TraceEventKind::kFaultRecovered, instr_id, ip_id, a.wire, "retry");
  report_.faults.retry_ns_lost += static_cast<uint64_t>(backoff.nanos());
  report_.instruction_packets++;
  eq_.ScheduleAfter(backoff, [this, instr_id, ip_id, assign_id] {
    TransmitAssignment(instr_id, ip_id, assign_id);
  });
}

void Sim::KillIp(int ip_id) {
  IpRt& ip = ips_[static_cast<size_t>(ip_id)];
  if (ip.dead) return;
  ip.dead = true;
  report_.faults.injected++;
  report_.faults.ip_kills++;
  Tr(obs::TraceEventKind::kFaultInjected, ip.instr, ip_id, 0, "ip-kill");
  // MC status poll: guarantees detection even when no assignment is in
  // flight (e.g. an IP holding a join outer while waiting on broadcasts).
  // An assignment watchdog may detect the death sooner; DeclareIpDead is
  // idempotent.
  eq_.ScheduleAfter(injector_.plan().detection_timeout,
                    [this, ip_id] { DeclareIpDead(ip_id); });
}

void Sim::DeclareIpDead(int ip_id) {
  IpRt& ip = ips_[static_cast<size_t>(ip_id)];
  if (ip.removed) return;
  ip.removed = true;
  live_ips_--;
  auto fit = std::find(free_ips_.begin(), free_ips_.end(), ip_id);
  if (fit != free_ips_.end()) free_ips_.erase(fit);
  const int instr_id = ip.instr;
  if (instr_id >= 0) {
    InstrRt& ir = instrs_[static_cast<size_t>(instr_id)];
    // Ship output still buffered at the dead station: its kernels ran at
    // packet acceptance, so everything here came from units that committed
    // (the units salvaged below never started).
    ShipResultBuffer(instr_id, &ip);
    // Salvage the undelivered assignment, if one is pending.
    if (ip.assign.has_value()) {
      const IpRt::PendingAssign a = *ip.assign;
      ip.assign.reset();
      switch (a.kind) {
        case IpRt::PendingAssign::kUnary:
          ir.lost_units.emplace_back(a.slot, a.unit_idx);
          ir.outstanding_packets--;
          report_.faults.redispatches++;
          Tr(obs::TraceEventKind::kFaultRecovered, instr_id, ip_id, 0,
             "redispatch");
          break;
        case IpRt::PendingAssign::kJoin:
          NormalizeRequeuedOuter(&ir, a.unit_idx);
          ir.requeued_outers.emplace_back(a.unit_idx, ip.irc);
          ip.has_outer = false;
          report_.faults.redispatches++;
          Tr(obs::TraceEventKind::kFaultRecovered, instr_id, ip_id, 0,
             "redispatch");
          break;
        case IpRt::PendingAssign::kFlush:
          ir.unflushed--;
          break;
      }
    }
    // An outer page held mid-join resumes on a survivor with its IRC
    // progress intact (same machinery as processor reclamation).
    if (ip.has_outer) {
      NormalizeRequeuedOuter(&ir, ip.outer_idx);
      ir.requeued_outers.emplace_back(ip.outer_idx, ip.irc);
      report_.faults.redispatches++;
      Tr(obs::TraceEventKind::kFaultRecovered, instr_id, ip_id, 0,
         "redispatch");
    }
    auto it = std::find(ir.ips.begin(), ir.ips.end(), ip_id);
    if (it != ir.ips.end()) ir.ips.erase(it);
    ip.instr = -1;
    ip.busy = false;
    ip.flush_sent = false;
    ip.has_outer = false;
    ip.irc.Resize(0);
    ip.pending_inner.clear();
    ip.awaiting_request = false;
    if (live_ips_ == 0) {
      Fail(Status::Unavailable("all instruction processors failed"));
    } else if (ir.phase == InstrPhase::kRunning) {
      DispatchWork(instr_id);
      MaybeFlush(instr_id);
    } else if (ir.phase == InstrPhase::kFlushing) {
      if (ir.program->finish_pending()) {
        // The barrier processor died before materializing the groups;
        // the aggregate state lives at the instruction, so re-run the
        // finish flush on a fresh grant.
        ir.phase = InstrPhase::kRunning;
        report_.faults.redispatches++;
        Tr(obs::TraceEventKind::kFaultRecovered, instr_id, ip_id, 0,
           "redispatch");
        RequestIps(instr_id);
      } else if (ir.unflushed == 0) {
        FinishInstr(instr_id);
      }
    }
  } else if (live_ips_ == 0) {
    Fail(Status::Unavailable("all instruction processors failed"));
  }
  PumpPendingRequests();
}

void Sim::FailIc(int ic_id) {
  if (ic_id < 0 || ic_id >= static_cast<int>(ic_alive_.size()) ||
      !ic_alive_[static_cast<size_t>(ic_id)]) {
    return;
  }
  ic_alive_[static_cast<size_t>(ic_id)] = 0;
  live_ics_--;
  report_.faults.injected++;
  report_.faults.ic_failures++;
  Tr(obs::TraceEventKind::kFaultInjected, -1, ic_id, 0, "ic-failure");
  if (live_ics_ == 0) {
    eq_.ScheduleAfter(injector_.plan().detection_timeout, [this] {
      Fail(Status::Unavailable("all instruction controllers failed"));
    });
    return;
  }
  // The MC notices the dead station after its status-poll period and
  // re-homes the IC's instructions to a survivor.
  eq_.ScheduleAfter(injector_.plan().detection_timeout,
                    [this, ic_id] { RehomeIc(ic_id); });
}

void Sim::RehomeIc(int ic_id) {
  int replacement = -1;
  for (size_t i = 0; i < ic_alive_.size(); ++i) {
    if (ic_alive_[i]) {
      replacement = static_cast<int>(i);
      break;
    }
  }
  if (replacement < 0) return;  // All dead; clean failure already queued.
  for (size_t i = 0; i < instrs_.size(); ++i) {
    InstrRt& ir = instrs_[i];
    if (ir.ic != ic_id || ir.phase == InstrPhase::kFinished) continue;
    // Control message over the inner ring per moved instruction. The
    // replacement's local memory starts cold for these pages: EnsureLocal
    // re-fetches them through the storage hierarchy as they are needed.
    ir.ic = replacement;
    report_.faults.instructions_rehomed++;
    Tr(obs::TraceEventKind::kFaultRecovered, static_cast<int>(i), replacement,
       0, "rehome");
    report_.control_packets++;
    (void)SendInner(kControlBytes);
  }
}

void Sim::InjectCacheStall(SimTime duration) {
  report_.faults.injected++;
  report_.faults.cache_stalls++;
  Tr(obs::TraceEventKind::kFaultInjected, -1, -1, 0, "cache-stall");
  report_.faults.cache_stall_ns += static_cast<uint64_t>(duration.nanos());
  cache_stall_until_ = std::max(cache_stall_until_, eq_.now() + duration);
}

// ---------------------------------------------------------------------------
// Kernels at the IPs (execution-driven)
// ---------------------------------------------------------------------------

StatusOr<std::pair<std::vector<PagePtr>, int64_t>> Sim::RunKernel(
    InstrRt* ir, IpRt* ip, int slot, const Page& in, const Page* inner,
    const JoinTable* table, int partition) {
  PagePacker* out = ip->results.get();
  const uint64_t before = out->tuples_emitted();
  Status s;
  if (inner != nullptr) {
    // An IP holds its outer page across many events, so each step hashes
    // it afresh rather than trusting scratch from an earlier page.
    ir->program->HashOuter(in, &ir->join_scratch);
    s = ir->program->Join(in, ir->join_scratch, *inner, table, out,
                          &kernel_stats_);
  } else {
    s = ir->program->Consume(slot, in, out, &kernel_stats_, partition);
  }
  std::vector<PagePtr> full;
  full.swap(ip->sealed);
  DFDB_RETURN_IF_ERROR(s);
  const auto tuples = static_cast<int64_t>(out->tuples_emitted() - before);
  return std::make_pair(std::move(full), tuples * out->tuple_width());
}

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

Status Sim::Run() {
  if (!error_.ok()) return error_;  // A program failed to build.
  ArmFaults();
  SubmitAll();
  report_.events = eq_.RunToCompletion(opt_.max_events);
  if (!error_.ok()) return error_;
  if (!eq_.empty()) {
    return Status::ResourceExhausted("simulation exceeded max_events");
  }
  if (active_queries_ > 0 || !waiting_queries_.empty()) {
    return Status::Internal("simulation drained with unfinished queries\n" +
                            DebugStates());
  }
  report_.makespan = eq_.now();
  if (injector_.active()) {
    // Trailing fault events and watchdogs advance the clock past the last
    // completion; the makespan is when the work actually finished.
    SimTime last;
    for (SimTime t : report_.query_completion) last = std::max(last, t);
    report_.makespan = last;
  }
  for (size_t qi = 0; qi < report_.results.size(); ++qi) {
    report_.results[qi].set_schema(prog_.plans[qi]->output_schema);
  }
  report_.kernel = kernel_stats_.Snapshot();
  report_.trace = trace_.Finish();
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

MachineSimulator::MachineSimulator(StorageEngine* storage,
                                   MachineOptions options)
    : storage_(storage), options_(options) {
  DFDB_CHECK(storage != nullptr);
}

StatusOr<MachineReport> MachineSimulator::Run(
    const std::vector<const PlanNode*>& queries) {
  DFDB_ASSIGN_OR_RETURN(MachineProgram program,
                        CompileProgram(storage_->catalog(), queries, options_));
  Sim sim(storage_, options_, std::move(program), queries.size());
  DFDB_RETURN_IF_ERROR(sim.Run());
  return sim.TakeReport();
}

}  // namespace dfdb
