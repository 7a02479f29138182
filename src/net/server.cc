/// \file server.cc
/// \brief Poll-based event loop: framing, admission, response streaming.
///
/// All socket and frame handling runs on one loop thread; query execution
/// runs on the Scheduler's worker pool. The loop polls completion by
/// QueryHandle::Done() — handles are cheap shared-state probes — so no
/// extra thread per request is needed and Submit() is only ever called
/// from the loop thread while Wait() is only called once Done() is true
/// (i.e. it never blocks the loop).

#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "operators/exchange.h"
#include "ra/parser.h"

namespace dfdb {
namespace net {

namespace {

using SteadyClock = std::chrono::steady_clock;

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, std::strerror(errno)));
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Engine/planner status → wire error category.
WireError StatusToWireError(const Status& status) {
  if (status.IsInvalidArgument() || status.IsNotFound()) {
    return WireError::kInvalidRequest;
  }
  if (status.IsUnavailable() || status.IsCancelled()) {
    return WireError::kShuttingDown;
  }
  return WireError::kInternal;
}

}  // namespace

/// \brief Event-loop-private state. Only the loop thread touches it.
struct Server::LoopState {
  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    FrameReader reader;
    /// Encoded frames awaiting the socket; out_offset is the progress
    /// within the front frame.
    std::deque<std::string> outq;
    size_t out_offset = 0;
    bool dead = false;

    explicit Connection(uint32_t max_frame_bytes)
        : reader(max_frame_bytes) {}
  };

  /// One submitted-but-unanswered request. `orphaned` means nobody is
  /// waiting anymore (client disconnected or deadline already answered);
  /// the handle is kept until Done() so the admission gauge keeps counting
  /// the pool resources the query still occupies, then the result is
  /// discarded — the scheduler reaps the runtime either way.
  struct InFlight {
    uint64_t conn_id = 0;
    uint32_t request_id = 0;
    QueryHandle handle;
    bool has_deadline = false;
    SteadyClock::time_point deadline{};
    bool orphaned = false;
    /// Non-zero: this query is a distributed fragment; completion routes
    /// through the exchange-output path keyed by (conn_id, exchange id).
    uint32_t fragment_exchange_id = 0;
    bool is_fragment = false;
  };

  /// One plan fragment a coordinator pushed via kFragment. Inputs stream
  /// into coordinator-named temp relations; once every input is EOF the
  /// fragment text runs as an ordinary query, and the finished result is
  /// re-partitioned into kExchangeData frames released one per output
  /// credit, terminated by kStats.
  struct FragmentState {
    uint64_t conn_id = 0;
    uint32_t request_id = 0;
    FragmentRequest spec;
    std::vector<std::string> temp_relations;  // Dropped on completion.
    int inputs_pending = 0;
    bool submitted = false;
    bool done = false;                 // Query finished; only streaming left.
    std::deque<std::string> pending;   // Encoded kExchangeData frames.
    std::string terminal;              // Encoded kStats or kError frame.
    uint32_t out_credits = 0;          // Output credits granted by the peer.
  };

  /// One inbound exchange stream feeding a fragment's temp relation.
  struct ExchangeInput {
    std::pair<uint64_t, uint32_t> fragment_key;
    std::string relation;
    HeapFile* heap = nullptr;  // Borrowed; valid until the temp is dropped.
    uint32_t tuple_width = 0;
    uint32_t sender_credits = kExchangeInitialCredits;
    bool eof = false;
  };

  std::map<uint64_t, Connection> conns;
  std::vector<InFlight> inflight;
  /// Keyed by (conn id, output exchange id) — exchange ids are unique per
  /// coordinator, and isolating by connection keeps coordinators from
  /// colliding with each other.
  std::map<std::pair<uint64_t, uint32_t>, FragmentState> fragments;
  /// Keyed by (conn id, input exchange id).
  std::map<std::pair<uint64_t, uint32_t>, ExchangeInput> exchange_inputs;
  uint64_t next_conn_id = 1;
};

Server::Server(StorageEngine* storage, ServerOptions options)
    : storage_(storage),
      options_(std::move(options)),
      scheduler_(storage, options_.scheduler),
      optimizer_(&storage->catalog()) {
  DFDB_CHECK(storage != nullptr);
}

Server::~Server() { Stop(); }

Status Server::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) return Status::FailedPrecondition("server already started");
  if (stopped_) return Status::FailedPrecondition("server already stopped");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument(
        StrFormat("cannot parse bind address '%s'", options_.host.c_str()));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status s = Errno("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable(std::string(s.message()));
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    Status s = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable(std::string(s.message()));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  if (!SetNonBlocking(listen_fd_) || ::pipe(wake_fds_) != 0 ||
      !SetNonBlocking(wake_fds_[0])) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Errno("server setup");
  }

  started_ = true;
  loop_thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void Server::Wake() {
  if (wake_fds_[1] >= 0) {
    const char byte = 'w';
    // Best effort: a full pipe already guarantees a pending wakeup.
    [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &byte, 1);
  }
}

void Server::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (stopped_) return;
  draining_.store(true, std::memory_order_release);
  if (started_) {
    Wake();
    loop_thread_.join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (int i = 0; i < 2; ++i) {
    if (wake_fds_[i] >= 0) ::close(wake_fds_[i]);
  }
  listen_fd_ = -1;
  wake_fds_[0] = wake_fds_[1] = -1;
  scheduler_.Shutdown();
  stopped_ = true;
}

void Server::SnapshotMetrics(obs::MetricsRegistry* registry) const {
  ExportCounters(registry, "net.", counters_.Snapshot());
  registry->Set("net.connections.active", active_connections_.load());
  registry->Set("net.inflight", inflight_now_.load());
  registry->Set("net.max_inflight",
                static_cast<uint64_t>(std::max(0, options_.max_inflight)));
  scheduler_.SnapshotMetrics(registry);
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void Server::Loop() {
  LoopState state;

  auto send_frame = [&](LoopState::Connection& conn, std::string frame) {
    if (conn.dead) return;
    conn.outq.push_back(std::move(frame));
  };

  auto send_error = [&](LoopState::Connection& conn, uint32_t request_id,
                        WireError code, std::string message) {
    send_frame(conn, EncodeErrorFrame(
                         request_id, ErrorMessage{code, std::move(message)}));
  };

  // Tears one fragment down: drops its temp relations, unregisters its
  // input streams, erases its state. Safe to call with a stale key.
  auto cleanup_fragment = [&](const std::pair<uint64_t, uint32_t>& key) {
    auto it = state.fragments.find(key);
    if (it == state.fragments.end()) return;
    for (const std::string& rel : it->second.temp_relations) {
      (void)storage_->DropRelation(rel);
    }
    for (auto in = state.exchange_inputs.begin();
         in != state.exchange_inputs.end();) {
      if (in->second.fragment_key == key) {
        in = state.exchange_inputs.erase(in);
      } else {
        ++in;
      }
    }
    state.fragments.erase(it);
  };

  // Closes the socket and orphans the connection's in-flight requests.
  // The map entry survives until retired requests stop referencing it.
  auto drop_conn = [&](LoopState::Connection& conn) {
    if (conn.dead) return;
    conn.dead = true;
    ::close(conn.fd);
    conn.fd = -1;
    conn.outq.clear();
    counters_.disconnects.fetch_add(1, std::memory_order_relaxed);
    active_connections_.fetch_sub(1, std::memory_order_relaxed);
    for (auto& req : state.inflight) {
      if (req.conn_id == conn.id) req.orphaned = true;
    }
    // Fragments still running stay until the engine finishes (the orphaned
    // InFlight reaps them); everything else is torn down now.
    std::vector<std::pair<uint64_t, uint32_t>> dead_frags;
    for (const auto& [key, frag] : state.fragments) {
      if (key.first == conn.id && (!frag.submitted || frag.done)) {
        dead_frags.push_back(key);
      }
    }
    for (const auto& key : dead_frags) cleanup_fragment(key);
  };

  auto handle_query = [&](LoopState::Connection& conn, uint32_t request_id,
                          Slice body) {
    counters_.requests.fetch_add(1, std::memory_order_relaxed);
    auto query = DecodeQuery(body);
    if (!query.ok()) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, WireError::kInvalidRequest,
                 query.status().ToString());
      return;
    }
    if (draining_.load(std::memory_order_acquire)) {
      send_error(conn, request_id, WireError::kShuttingDown,
                 "server is draining");
      return;
    }
    if (inflight_now_.load(std::memory_order_relaxed) >=
        static_cast<uint64_t>(std::max(0, options_.max_inflight))) {
      counters_.rejected.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, WireError::kRetryLater,
                 StrFormat("admission cap of %d in-flight requests reached",
                           options_.max_inflight));
      return;
    }
    auto parsed = ParseQuery(query->text);
    if (!parsed.ok()) {
      counters_.invalid_requests.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, WireError::kInvalidRequest,
                 parsed.status().ToString());
      return;
    }
    auto optimized = optimizer_.Optimize(**parsed);
    if (!optimized.ok()) {
      counters_.invalid_requests.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, WireError::kInvalidRequest,
                 optimized.status().ToString());
      return;
    }
    auto handle = scheduler_.Submit(**optimized);
    if (!handle.ok()) {
      const WireError code = StatusToWireError(handle.status());
      if (code == WireError::kInvalidRequest) {
        counters_.invalid_requests.fetch_add(1, std::memory_order_relaxed);
      }
      send_error(conn, request_id, code, handle.status().ToString());
      return;
    }
    LoopState::InFlight req;
    req.conn_id = conn.id;
    req.request_id = request_id;
    req.handle = *std::move(handle);
    const uint32_t deadline_ms = query->deadline_ms != 0
                                     ? query->deadline_ms
                                     : options_.default_deadline_ms;
    if (deadline_ms != 0) {
      req.has_deadline = true;
      req.deadline =
          SteadyClock::now() + std::chrono::milliseconds(deadline_ms);
    }
    state.inflight.push_back(std::move(req));
    inflight_now_.fetch_add(1, std::memory_order_relaxed);
  };

  // Runs a fragment whose inputs are all materialized: commits the temp
  // relations, then plans and submits the fragment text like any query.
  // Fragments bypass the admission cap — a coordinator is a trusted peer
  // whose fan-out its own configuration bounds, and rejecting one fragment
  // of a distributed query would waste the whole shuffle.
  auto submit_fragment = [&](LoopState::Connection& conn,
                             const std::pair<uint64_t, uint32_t>& key) {
    LoopState::FragmentState& frag = state.fragments.at(key);
    frag.submitted = true;
    auto fail = [&](const Status& status) {
      counters_.fragment_errors.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, frag.request_id, StatusToWireError(status),
                 status.ToString());
      cleanup_fragment(key);
    };
    for (const std::string& rel : frag.temp_relations) {
      Status s = storage_->SyncStats(rel);
      if (!s.ok()) return fail(s);
    }
    auto parsed = ParseQuery(frag.spec.text);
    if (!parsed.ok()) {
      counters_.invalid_requests.fetch_add(1, std::memory_order_relaxed);
      return fail(parsed.status());
    }
    auto optimized = optimizer_.Optimize(**parsed);
    if (!optimized.ok()) {
      counters_.invalid_requests.fetch_add(1, std::memory_order_relaxed);
      return fail(optimized.status());
    }
    auto handle = scheduler_.Submit(**optimized);
    if (!handle.ok()) return fail(handle.status());
    LoopState::InFlight req;
    req.conn_id = conn.id;
    req.request_id = frag.request_id;
    req.handle = *std::move(handle);
    req.is_fragment = true;
    req.fragment_exchange_id = key.second;
    if (frag.spec.deadline_ms != 0) {
      req.has_deadline = true;
      req.deadline = SteadyClock::now() +
                     std::chrono::milliseconds(frag.spec.deadline_ms);
    }
    state.inflight.push_back(std::move(req));
    inflight_now_.fetch_add(1, std::memory_order_relaxed);
  };

  // Releases staged output batches, one per granted credit; once drained,
  // sends the terminal stats/error frame and tears the fragment down.
  auto flush_fragment_output = [&](LoopState::Connection& conn,
                                   const std::pair<uint64_t, uint32_t>& key) {
    auto it = state.fragments.find(key);
    if (it == state.fragments.end()) return;
    LoopState::FragmentState& frag = it->second;
    if (!frag.done) return;
    while (frag.out_credits > 0 && !frag.pending.empty()) {
      counters_.exchange_batches_out.fetch_add(1, std::memory_order_relaxed);
      send_frame(conn, std::move(frag.pending.front()));
      frag.pending.pop_front();
      --frag.out_credits;
    }
    if (!frag.pending.empty()) {
      counters_.exchange_credit_stalls.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    send_frame(conn, std::move(frag.terminal));
    cleanup_fragment(key);
  };

  // Splits a completed fragment result into partition-routed kExchangeData
  // frames (staged, credit-released) plus the terminal kStats frame.
  auto stage_fragment_output = [&](LoopState::FragmentState& frag,
                                   const QueryResult& result) -> Status {
    const Schema& schema = result.schema();
    const int width = schema.tuple_width();
    const uint32_t exchange_id = frag.spec.output_exchange_id;
    const size_t batch_bytes = std::min<size_t>(
        64 * 1024, std::max<uint32_t>(1024, options_.max_frame_bytes / 2));
    auto emit = [&](int partition, uint32_t num_tuples, std::string bytes) {
      counters_.exchange_bytes_out.fetch_add(bytes.size(),
                                             std::memory_order_relaxed);
      ExchangeBatch out;
      out.exchange_id = exchange_id;
      out.partition_id = static_cast<uint32_t>(partition);
      out.num_tuples = num_tuples;
      out.tuple_width = static_cast<uint32_t>(width);
      out.tuples = std::move(bytes);
      frag.pending.push_back(EncodeExchangeDataFrame(frag.request_id, out));
    };
    ExchangeKey key;
    int partitions = static_cast<int>(frag.spec.output_partitions);
    ExchangePartitioner::Emit route = emit;
    if (frag.spec.output_mode == ExchangeMode::kPartition) {
      std::vector<int> cols(frag.spec.output_key_cols.begin(),
                            frag.spec.output_key_cols.end());
      DFDB_ASSIGN_OR_RETURN(key, ExchangeKey::FromColumns(schema, cols));
      if (key.empty()) {
        return Status::InvalidArgument(
            "partition-mode fragment without key columns");
      }
    } else if (frag.spec.output_mode == ExchangeMode::kBroadcast) {
      // Batch once, then duplicate every batch to all consumers.
      const int fanout = partitions;
      partitions = 1;
      route = [&, fanout](int, uint32_t num_tuples, std::string bytes) {
        for (int p = 0; p < fanout; ++p) {
          counters_.exchange_broadcast_batches.fetch_add(
              1, std::memory_order_relaxed);
          emit(p, num_tuples, bytes);
        }
      };
    } else {
      partitions = 1;  // kGather: one consumer stream.
    }
    ExchangePartitioner partitioner(partitions, std::move(key), width,
                                    batch_bytes, route);
    for (const PagePtr& page : result.pages()) {
      for (int i = 0; i < page->num_tuples(); ++i) {
        partitioner.Add(page->tuple(i));
      }
    }
    partitioner.Flush();
    StatsMessage stats;
    stats.total_rows = result.num_tuples();
    stats.seconds = result.stats().wall_seconds;
    obs::MetricsRegistry registry;
    RegisterMetrics(result.stats(), &registry);
    stats.counters = registry.counters();
    frag.terminal = EncodeStatsFrame(frag.request_id, stats);
    return Status::OK();
  };

  auto handle_fragment = [&](LoopState::Connection& conn, uint32_t request_id,
                             Slice body) {
    auto decoded = DecodeFragment(body);
    if (!decoded.ok()) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, WireError::kInvalidRequest,
                 decoded.status().ToString());
      return;
    }
    if (draining_.load(std::memory_order_acquire)) {
      send_error(conn, request_id, WireError::kShuttingDown,
                 "server is draining");
      return;
    }
    const auto key = std::make_pair(conn.id, decoded->output_exchange_id);
    if (state.fragments.count(key) != 0) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, WireError::kInvalidRequest,
                 StrFormat("duplicate fragment exchange id %u",
                           decoded->output_exchange_id));
      return;
    }
    counters_.fragments.fetch_add(1, std::memory_order_relaxed);
    LoopState::FragmentState& frag = state.fragments[key];
    frag.conn_id = conn.id;
    frag.request_id = request_id;
    frag.spec = *std::move(decoded);
    frag.out_credits = frag.spec.output_credits;
    auto fail = [&](const Status& status) {
      counters_.fragment_errors.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, StatusToWireError(status),
                 status.ToString());
      cleanup_fragment(key);
    };
    for (const FragmentInput& input : frag.spec.inputs) {
      const auto in_key = std::make_pair(conn.id, input.exchange_id);
      if (state.exchange_inputs.count(in_key) != 0) {
        return fail(Status::InvalidArgument(
            StrFormat("duplicate input exchange id %u", input.exchange_id)));
      }
      auto id = storage_->CreateRelation(input.relation, input.schema);
      if (!id.ok()) return fail(id.status());
      frag.temp_relations.push_back(input.relation);
      auto heap = storage_->GetHeapFile(*id);
      if (!heap.ok()) return fail(heap.status());
      LoopState::ExchangeInput in;
      in.fragment_key = key;
      in.relation = input.relation;
      in.heap = *heap;
      in.tuple_width = static_cast<uint32_t>(input.schema.tuple_width());
      state.exchange_inputs.emplace(in_key, std::move(in));
    }
    frag.inputs_pending = static_cast<int>(frag.spec.inputs.size());
    if (frag.inputs_pending == 0) submit_fragment(conn, key);
  };

  auto handle_exchange_data = [&](LoopState::Connection& conn,
                                  uint32_t request_id, Slice body) {
    auto batch = DecodeExchangeData(body);
    if (!batch.ok()) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, WireError::kInvalidRequest,
                 batch.status().ToString());
      return;
    }
    auto it = state.exchange_inputs.find({conn.id, batch->exchange_id});
    if (it == state.exchange_inputs.end()) {
      counters_.exchange_unknown.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, WireError::kInvalidRequest,
                 StrFormat("no open exchange input %u", batch->exchange_id));
      return;
    }
    LoopState::ExchangeInput& in = it->second;
    if (in.eof) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, WireError::kInvalidRequest,
                 "exchange data after EOF");
      return;
    }
    if (in.sender_credits == 0) {
      counters_.exchange_credit_underflows.fetch_add(1,
                                                     std::memory_order_relaxed);
      send_error(conn, request_id, WireError::kInvalidRequest,
                 "exchange credit underflow: batch sent without credit");
      return;
    }
    if (batch->tuple_width != in.tuple_width) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, WireError::kInvalidRequest,
                 StrFormat("exchange tuple width %u != schema width %u",
                           batch->tuple_width, in.tuple_width));
      return;
    }
    --in.sender_credits;
    for (uint32_t i = 0; i < batch->num_tuples; ++i) {
      Status s = in.heap->AppendEncoded(
          Slice(batch->tuples.data() +
                    static_cast<size_t>(i) * batch->tuple_width,
                batch->tuple_width));
      if (!s.ok()) {
        const auto frag_key = in.fragment_key;
        auto fit = state.fragments.find(frag_key);
        counters_.fragment_errors.fetch_add(1, std::memory_order_relaxed);
        send_error(conn,
                   fit != state.fragments.end() ? fit->second.request_id
                                                : request_id,
                   WireError::kInternal, s.ToString());
        cleanup_fragment(frag_key);
        return;
      }
    }
    counters_.exchange_batches_in.fetch_add(1, std::memory_order_relaxed);
    counters_.exchange_bytes_in.fetch_add(batch->tuples.size(),
                                          std::memory_order_relaxed);
    // The batch is consumed synchronously, so its credit goes straight
    // back to the sender.
    ++in.sender_credits;
    counters_.exchange_credits_granted.fetch_add(1, std::memory_order_relaxed);
    send_frame(conn,
               EncodeExchangeCreditFrame(
                   request_id, ExchangeCreditMessage{batch->exchange_id, 1}));
  };

  auto handle_exchange_eof = [&](LoopState::Connection& conn,
                                 uint32_t request_id, Slice body) {
    auto eof = DecodeExchangeEof(body);
    if (!eof.ok()) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, WireError::kInvalidRequest,
                 eof.status().ToString());
      return;
    }
    auto it = state.exchange_inputs.find({conn.id, eof->exchange_id});
    if (it == state.exchange_inputs.end()) {
      counters_.exchange_unknown.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, WireError::kInvalidRequest,
                 StrFormat("no open exchange input %u", eof->exchange_id));
      return;
    }
    LoopState::ExchangeInput& in = it->second;
    if (in.eof) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, WireError::kInvalidRequest,
                 "duplicate exchange EOF");
      return;
    }
    in.eof = true;
    counters_.exchange_eofs.fetch_add(1, std::memory_order_relaxed);
    auto fit = state.fragments.find(in.fragment_key);
    if (fit != state.fragments.end() && --fit->second.inputs_pending == 0) {
      submit_fragment(conn, in.fragment_key);
    }
  };

  auto handle_exchange_credit = [&](LoopState::Connection& conn,
                                    uint32_t request_id, Slice body) {
    auto credit = DecodeExchangeCredit(body);
    if (!credit.ok()) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, WireError::kInvalidRequest,
                 credit.status().ToString());
      return;
    }
    const auto key = std::make_pair(conn.id, credit->exchange_id);
    auto it = state.fragments.find(key);
    if (it == state.fragments.end()) {
      // A grant-after-consume credit inherently races with the fragment's
      // terminal frame: the coordinator may credit a batch after this side
      // already sent everything and tore the fragment down. Count it,
      // don't error — credits are advisory.
      counters_.exchange_unknown.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    it->second.out_credits += credit->credits;
    flush_fragment_output(conn, key);
  };

  auto handle_frame = [&](LoopState::Connection& conn, const Frame& frame) {
    if (!IsKnownOpcode(frame.header.opcode)) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, frame.header.request_id, WireError::kInvalidRequest,
                 StrFormat("unknown opcode %u",
                           static_cast<unsigned>(frame.header.opcode)));
      return;
    }
    switch (static_cast<Opcode>(frame.header.opcode)) {
      case Opcode::kQuery:
        handle_query(conn, frame.header.request_id, Slice(frame.body));
        break;
      case Opcode::kPing:
        counters_.pings.fetch_add(1, std::memory_order_relaxed);
        send_frame(conn, EncodePongFrame(frame.header.request_id));
        break;
      case Opcode::kFragment:
        handle_fragment(conn, frame.header.request_id, Slice(frame.body));
        break;
      case Opcode::kExchangeData:
        handle_exchange_data(conn, frame.header.request_id,
                             Slice(frame.body));
        break;
      case Opcode::kExchangeEof:
        handle_exchange_eof(conn, frame.header.request_id, Slice(frame.body));
        break;
      case Opcode::kExchangeCredit:
        handle_exchange_credit(conn, frame.header.request_id,
                               Slice(frame.body));
        break;
      default:
        // A client sending server→client frames is confused but framed;
        // answer and keep the connection.
        send_error(conn, frame.header.request_id, WireError::kInvalidRequest,
                   "unexpected frame direction");
        break;
    }
  };

  auto read_conn = [&](LoopState::Connection& conn) {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        counters_.bytes_in.fetch_add(static_cast<uint64_t>(n),
                                     std::memory_order_relaxed);
        conn.reader.Append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {  // Peer closed.
        drop_conn(conn);
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      drop_conn(conn);
      return;
    }
    for (;;) {
      auto next = conn.reader.Next();
      if (!next.ok()) {
        // Framing lost: the stream cannot be resynchronized.
        counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        drop_conn(conn);
        return;
      }
      if (!next->has_value()) break;
      handle_frame(conn, **next);
      if (conn.dead) return;
    }
  };

  auto flush_conn = [&](LoopState::Connection& conn) {
    while (!conn.outq.empty()) {
      const std::string& front = conn.outq.front();
      const ssize_t n =
          ::send(conn.fd, front.data() + conn.out_offset,
                 front.size() - conn.out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        counters_.bytes_out.fetch_add(static_cast<uint64_t>(n),
                                      std::memory_order_relaxed);
        conn.out_offset += static_cast<size_t>(n);
        if (conn.out_offset == front.size()) {
          conn.outq.pop_front();
          conn.out_offset = 0;
        }
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      drop_conn(conn);
      return;
    }
  };

  // Streams one completed result: schema, one rows frame per result page,
  // then the terminal stats frame carrying the per-query counters.
  auto respond_result = [&](LoopState::Connection& conn, uint32_t request_id,
                            const QueryResult& result) {
    send_frame(conn, EncodeSchemaFrame(request_id, result.schema()));
    for (const PagePtr& page : result.pages()) {
      if (page->num_tuples() == 0) continue;
      RowsBatch batch;
      batch.num_tuples = static_cast<uint32_t>(page->num_tuples());
      batch.tuple_width = static_cast<uint32_t>(page->tuple_width());
      batch.tuples.reserve(static_cast<size_t>(page->payload_bytes()));
      for (int i = 0; i < page->num_tuples(); ++i) {
        const Slice t = page->tuple(i);
        batch.tuples.append(t.data(), t.size());
      }
      send_frame(conn, EncodeRowsFrame(request_id, batch));
    }
    StatsMessage stats;
    stats.total_rows = result.num_tuples();
    stats.seconds = result.stats().wall_seconds;
    obs::MetricsRegistry registry;
    RegisterMetrics(result.stats(), &registry);
    stats.counters = registry.counters();
    send_frame(conn, EncodeStatsFrame(request_id, stats));
  };

  // Sweeps in-flight requests: answer completions, fire deadlines.
  auto sweep_inflight = [&] {
    const auto now = SteadyClock::now();
    for (size_t i = 0; i < state.inflight.size();) {
      LoopState::InFlight& req = state.inflight[i];
      if (req.handle.Done()) {
        auto result = req.handle.Wait();
        auto conn_it = state.conns.find(req.conn_id);
        const bool deliverable = !req.orphaned &&
                                 conn_it != state.conns.end() &&
                                 !conn_it->second.dead;
        if (req.is_fragment) {
          const auto key =
              std::make_pair(req.conn_id, req.fragment_exchange_id);
          auto fit = state.fragments.find(key);
          if (!deliverable || fit == state.fragments.end()) {
            counters_.orphaned_results.fetch_add(1, std::memory_order_relaxed);
            cleanup_fragment(key);
          } else if (!result.ok()) {
            counters_.fragment_errors.fetch_add(1, std::memory_order_relaxed);
            send_error(conn_it->second, req.request_id,
                       StatusToWireError(result.status()),
                       result.status().ToString());
            cleanup_fragment(key);
          } else {
            Status staged = stage_fragment_output(fit->second, *result);
            if (!staged.ok()) {
              counters_.fragment_errors.fetch_add(1,
                                                  std::memory_order_relaxed);
              send_error(conn_it->second, req.request_id,
                         StatusToWireError(staged), staged.ToString());
              cleanup_fragment(key);
            } else {
              fit->second.done = true;
              flush_fragment_output(conn_it->second, key);
            }
          }
        } else if (!deliverable) {
          counters_.orphaned_results.fetch_add(1, std::memory_order_relaxed);
        } else if (result.ok()) {
          respond_result(conn_it->second, req.request_id, *result);
        } else {
          send_error(conn_it->second, req.request_id,
                     StatusToWireError(result.status()),
                     result.status().ToString());
        }
        state.inflight.erase(state.inflight.begin() +
                             static_cast<ptrdiff_t>(i));
        inflight_now_.fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
      if (!req.orphaned && req.has_deadline && now >= req.deadline) {
        counters_.deadline_expired.fetch_add(1, std::memory_order_relaxed);
        auto conn_it = state.conns.find(req.conn_id);
        if (conn_it != state.conns.end() && !conn_it->second.dead) {
          send_error(conn_it->second, req.request_id,
                     WireError::kDeadlineExceeded,
                     "deadline expired before the query completed");
        }
        // Keep the handle until Done() so the admission cap still counts
        // the pool resources this query occupies.
        req.orphaned = true;
      }
      ++i;
    }
  };

  std::vector<pollfd> pfds;
  std::vector<uint64_t> pfd_conn;  // conn id per pollfd (0 = listen/wake).

  for (;;) {
    const bool draining = draining_.load(std::memory_order_acquire);

    // Reap dead connections no in-flight request references anymore.
    for (auto it = state.conns.begin(); it != state.conns.end();) {
      bool referenced = false;
      if (it->second.dead) {
        for (const auto& req : state.inflight) {
          if (req.conn_id == it->first) {
            referenced = true;
            break;
          }
        }
        if (!referenced) {
          it = state.conns.erase(it);
          continue;
        }
      }
      ++it;
    }

    if (draining) {
      // Drained when every request that still has a waiting client is
      // answered and every response byte is on the wire.
      bool pending = false;
      for (const auto& req : state.inflight) {
        if (!req.orphaned) pending = true;
      }
      for (const auto& [id, conn] : state.conns) {
        if (!conn.dead && !conn.outq.empty()) pending = true;
      }
      if (!pending) break;
    }

    pfds.clear();
    pfd_conn.clear();
    if (!draining) {
      pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
      pfd_conn.push_back(0);
    }
    pfds.push_back(pollfd{wake_fds_[0], POLLIN, 0});
    pfd_conn.push_back(0);
    for (auto& [id, conn] : state.conns) {
      if (conn.dead) continue;
      short events = POLLIN;
      if (!conn.outq.empty()) events |= POLLOUT;
      pfds.push_back(pollfd{conn.fd, events, 0});
      pfd_conn.push_back(id);
    }

    const bool busy = !state.inflight.empty();
    const int timeout_ms = busy ? 1 : (draining ? 10 : 100);
    const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      DFDB_LOG(Error) << "server poll failed: " << std::strerror(errno);
      break;
    }

    for (size_t i = 0; i < pfds.size(); ++i) {
      const pollfd& p = pfds[i];
      if (p.revents == 0) continue;
      if (p.fd == wake_fds_[0]) {
        char drain[64];
        while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (!draining && p.fd == listen_fd_) {
        for (;;) {
          const int fd = ::accept(listen_fd_, nullptr, nullptr);
          if (fd < 0) break;
          if (active_connections_.load(std::memory_order_relaxed) >=
                  static_cast<uint64_t>(options_.max_connections) ||
              !SetNonBlocking(fd)) {
            counters_.connections_refused.fetch_add(
                1, std::memory_order_relaxed);
            ::close(fd);
            continue;
          }
          const int one = 1;
          (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          counters_.connections_accepted.fetch_add(1,
                                                   std::memory_order_relaxed);
          active_connections_.fetch_add(1, std::memory_order_relaxed);
          const uint64_t id = state.next_conn_id++;
          auto [it, inserted] = state.conns.emplace(
              id, LoopState::Connection(options_.max_frame_bytes));
          it->second.id = id;
          it->second.fd = fd;
        }
        continue;
      }
      auto it = state.conns.find(pfd_conn[i]);
      if (it == state.conns.end() || it->second.dead) continue;
      LoopState::Connection& conn = it->second;
      if ((p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (p.revents & POLLIN) == 0) {
        drop_conn(conn);
        continue;
      }
      if ((p.revents & POLLIN) != 0) read_conn(conn);
      if (!conn.dead && (p.revents & POLLOUT) != 0) flush_conn(conn);
    }

    sweep_inflight();

    // Try to push queued responses immediately instead of waiting one
    // poll round for POLLOUT.
    for (auto& [id, conn] : state.conns) {
      if (!conn.dead && !conn.outq.empty()) flush_conn(conn);
    }
  }

  // Loop exit (drain complete): tear down any fragment remnants so their
  // temp relations do not outlive the server, then close sockets; any
  // still-running orphaned queries are owned by the scheduler, which
  // Stop() shuts down next.
  while (!state.fragments.empty()) {
    cleanup_fragment(state.fragments.begin()->first);
  }
  for (auto& [id, conn] : state.conns) {
    if (!conn.dead) {
      ::close(conn.fd);
      conn.fd = -1;
      conn.dead = true;
      active_connections_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  const uint64_t orphans = static_cast<uint64_t>(state.inflight.size());
  if (orphans > 0) {
    counters_.orphaned_results.fetch_add(orphans, std::memory_order_relaxed);
    inflight_now_.fetch_sub(orphans, std::memory_order_relaxed);
  }
  state.inflight.clear();
}

}  // namespace net
}  // namespace dfdb
