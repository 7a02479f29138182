/// \file server.cc
/// \brief Poll-based event loop: framing, admission, response streaming.
///
/// All socket and frame handling runs on one loop thread; query execution
/// runs on the Scheduler's worker pool. The loop polls completion by
/// QueryHandle::Done() — handles are cheap shared-state probes — so no
/// extra thread per request is needed and Submit() is only ever called
/// from the loop thread while Wait() is only called once Done() is true
/// (i.e. it never blocks the loop). It sweeps for completions on a fixed
/// cadence, kSweepInterval after the previous sweep, not at whatever
/// socket event wakes it first: how long a finished query waits for its
/// answer does not depend on other connections' traffic.

#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "ra/parser.h"

namespace dfdb {
namespace net {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Time between two sweeps of the in-flight requests while any is pending.
constexpr std::chrono::milliseconds kSweepInterval(1);

timespec ToTimespec(SteadyClock::duration d) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::max(d, SteadyClock::duration::zero()))
                      .count();
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1000000000);
  ts.tv_nsec = static_cast<long>(ns % 1000000000);
  return ts;
}

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, std::strerror(errno)));
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
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
    std::optional<SteadyClock::time_point> deadline;
    bool orphaned = false;
    /// Set for a distributed fragment: its FragmentHost answers it.
    std::optional<FragmentKey> fragment;
  };

  std::map<uint64_t, Connection> conns;
  std::vector<InFlight> inflight;
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

StatusOr<int> ListenTcp(const std::string& host, uint16_t port, int backlog,
                        uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument(
        StrFormat("cannot parse bind address '%s'", host.c_str()));
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    Status s = Errno("bind/listen");
    ::close(fd);
    return Status::Unavailable(std::string(s.message()));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

Status Server::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) return Status::FailedPrecondition("server already started");
  if (stopped_) return Status::FailedPrecondition("server already stopped");

  DFDB_ASSIGN_OR_RETURN(
      listen_fd_,
      ListenTcp(options_.host, options_.port, options_.backlog, &port_));
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
  // Drops every temp relation left when the loop exits.
  FragmentHost fragments(storage_, options_.max_frame_bytes, &counters_);

  // Only live connections get frames: a dead one orphaned its requests and
  // is reaped before it is polled again.
  auto send_error = [&](LoopState::Connection& conn, uint32_t request_id,
                        WireError code, std::string message) {
    conn.outq.push_back(EncodeErrorFrame(
        request_id, ErrorMessage{code, std::move(message)}));
  };

  // Closes the socket and orphans the connection's in-flight requests.
  // The map entry goes at the top of the next loop round.
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
    fragments.DropConnection(conn.id);
  };

  // Streams one completed result: schema, one rows frame per result page,
  // then the terminal stats frame carrying the per-query counters.
  auto respond_result = [&](LoopState::Connection& conn, uint32_t request_id,
                            const QueryResult& result) {
    conn.outq.push_back(EncodeSchemaFrame(request_id, result.schema()));
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
      conn.outq.push_back(EncodeRowsFrame(request_id, batch));
    }
    conn.outq.push_back(EncodeResultStatsFrame(request_id, result));
  };

  // Answers one finished request, or one that could not be submitted. A
  // fragment's answer goes through its host; conn is null when nobody
  // reads the answer anymore.
  auto answer = [&](LoopState::Connection* conn, uint32_t request_id,
                    const std::optional<FragmentKey>& fragment,
                    const StatusOr<QueryResult>& result) {
    if (fragment.has_value()) {
      fragments.Complete(*fragment, result,
                         conn != nullptr ? &conn->outq : nullptr);
      return;
    }
    if (conn == nullptr) return;
    if (result.ok()) {
      respond_result(*conn, request_id, *result);
    } else {
      send_error(*conn, request_id, StatusToWireError(result.status()),
                 result.status().ToString());
    }
  };

  // Plans and submits a query or a ready fragment; the sweep answers it.
  auto submit = [&](LoopState::Connection& conn, uint32_t request_id,
                    const std::string& text, uint32_t deadline_ms,
                    const std::optional<FragmentKey>& fragment) {
    StatusOr<QueryHandle> handle = [&]() -> StatusOr<QueryHandle> {
      DFDB_ASSIGN_OR_RETURN(PlanNodePtr parsed, ParseQuery(text));
      DFDB_ASSIGN_OR_RETURN(PlanNodePtr optimized,
                            optimizer_.Optimize(*parsed));
      return scheduler_.Submit(*optimized);
    }();
    if (!handle.ok()) {
      if (StatusToWireError(handle.status()) == WireError::kInvalidRequest) {
        counters_.invalid_requests.fetch_add(1, std::memory_order_relaxed);
      }
      answer(&conn, request_id, fragment, handle.status());
      return;
    }
    LoopState::InFlight req;
    req.conn_id = conn.id;
    req.request_id = request_id;
    req.handle = *std::move(handle);
    req.fragment = fragment;
    if (deadline_ms != 0) {
      req.deadline =
          SteadyClock::now() + std::chrono::milliseconds(deadline_ms);
    }
    state.inflight.push_back(std::move(req));
    inflight_now_.fetch_add(1, std::memory_order_relaxed);
  };

  // Fragments bypass the admission cap — a coordinator is a trusted peer
  // whose fan-out its own configuration bounds, and rejecting one fragment
  // of a distributed query would waste the whole shuffle.
  auto submit_ready = [&](LoopState::Connection& conn,
                          std::optional<ReadyFragment> ready) {
    if (ready.has_value()) {
      submit(conn, ready->request_id, ready->text, ready->deadline_ms,
             ready->key);
    }
  };

  auto handle_frame = [&](LoopState::Connection& conn, const Frame& frame) {
    const uint32_t request_id = frame.header.request_id;
    const Slice body(frame.body);
    // A framed protocol error (unknown opcode, body that does not decode):
    // answer it and keep the connection.
    auto malformed = [&](std::string message) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, WireError::kInvalidRequest,
                 std::move(message));
    };
    auto draining = [&] {
      if (!draining_.load(std::memory_order_acquire)) return false;
      send_error(conn, request_id, WireError::kShuttingDown,
                 "server is draining");
      return true;
    };
    if (!IsKnownOpcode(frame.header.opcode)) {
      return malformed(StrFormat("unknown opcode %u",
                                 static_cast<unsigned>(frame.header.opcode)));
    }
    switch (static_cast<Opcode>(frame.header.opcode)) {
      case Opcode::kQuery: {
        counters_.requests.fetch_add(1, std::memory_order_relaxed);
        auto query = DecodeQuery(body);
        if (!query.ok()) return malformed(query.status().ToString());
        if (draining()) return;
        if (inflight_now_.load(std::memory_order_relaxed) >=
            static_cast<uint64_t>(std::max(0, options_.max_inflight))) {
          counters_.rejected.fetch_add(1, std::memory_order_relaxed);
          send_error(conn, request_id, WireError::kRetryLater,
                     StrFormat("admission cap of %d in-flight requests reached",
                               options_.max_inflight));
          return;
        }
        submit(conn, request_id, query->text,
               query->deadline_ms != 0 ? query->deadline_ms
                                       : options_.default_deadline_ms,
               std::nullopt);
        return;
      }
      case Opcode::kPing:
        counters_.pings.fetch_add(1, std::memory_order_relaxed);
        conn.outq.push_back(EncodePongFrame(request_id));
        return;
      case Opcode::kFragment: {
        auto spec = DecodeFragment(body);
        if (!spec.ok()) return malformed(spec.status().ToString());
        if (draining()) return;
        submit_ready(conn, fragments.OnFragment(conn.id, request_id,
                                                *std::move(spec), &conn.outq));
        return;
      }
      case Opcode::kExchangeData: {
        auto batch = DecodeExchangeData(body);
        if (!batch.ok()) return malformed(batch.status().ToString());
        fragments.OnExchangeData(conn.id, request_id, *batch, &conn.outq);
        return;
      }
      case Opcode::kExchangeEof: {
        auto eof = DecodeExchangeEof(body);
        if (!eof.ok()) return malformed(eof.status().ToString());
        submit_ready(conn, fragments.OnExchangeEof(conn.id, request_id, *eof,
                                                   &conn.outq));
        return;
      }
      case Opcode::kExchangeCredit: {
        auto credit = DecodeExchangeCredit(body);
        if (!credit.ok()) return malformed(credit.status().ToString());
        fragments.OnExchangeCredit(conn.id, *credit, &conn.outq);
        return;
      }
      default:
        // A client sending server→client frames is confused but framed;
        // answer and keep the connection.
        send_error(conn, request_id, WireError::kInvalidRequest,
                   "unexpected frame direction");
        return;
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

  // Sweeps in-flight requests: answer completions, fire deadlines.
  auto sweep_inflight = [&](SteadyClock::time_point now) {
    for (size_t i = 0; i < state.inflight.size();) {
      LoopState::InFlight& req = state.inflight[i];
      if (req.handle.Done()) {
        auto result = req.handle.Wait();
        // A request stays un-orphaned only while its connection lives.
        LoopState::Connection* conn =
            req.orphaned ? nullptr : &state.conns.at(req.conn_id);
        if (conn == nullptr) {
          counters_.orphaned_results.fetch_add(1, std::memory_order_relaxed);
        }
        answer(conn, req.request_id, req.fragment, result);
        state.inflight.erase(state.inflight.begin() +
                             static_cast<ptrdiff_t>(i));
        inflight_now_.fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
      if (!req.orphaned && req.deadline.has_value() && now >= *req.deadline) {
        counters_.deadline_expired.fetch_add(1, std::memory_order_relaxed);
        send_error(state.conns.at(req.conn_id), req.request_id,
                   WireError::kDeadlineExceeded,
                   "deadline expired before the query completed");
        // Keep the handle until Done() so the admission cap still counts
        // the pool resources this query occupies.
        req.orphaned = true;
      }
      ++i;
    }
  };

  std::vector<pollfd> pfds;
  std::vector<uint64_t> pfd_conn;  // conn id per pollfd (0 = listen/wake).
  SteadyClock::time_point next_sweep{};

  for (;;) {
    const bool draining = draining_.load(std::memory_order_acquire);

    // Reap dead connections: drop_conn orphaned their requests, so no
    // lookup by id needs the entry anymore, and every entry below is live.
    std::erase_if(state.conns, [](const auto& c) { return c.second.dead; });

    if (draining) {
      // Drained when every request that still has a waiting client is
      // answered and every response byte is on the wire.
      bool pending = false;
      for (const auto& req : state.inflight) {
        if (!req.orphaned) pending = true;
      }
      for (const auto& [id, conn] : state.conns) {
        if (!conn.outq.empty()) pending = true;
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
      short events = POLLIN;
      if (!conn.outq.empty()) events |= POLLOUT;
      pfds.push_back(pollfd{conn.fd, events, 0});
      pfd_conn.push_back(id);
    }

    const bool busy = !state.inflight.empty();
    const timespec timeout = ToTimespec(
        busy ? next_sweep - SteadyClock::now()
             : std::chrono::milliseconds(draining ? 10 : 100));
    const int ready = ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
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

    // Only the cadence sweeps: a socket event that lands between two sweeps
    // neither answers a finished query early nor postpones the next sweep.
    const auto now = SteadyClock::now();
    if (now >= next_sweep) {
      sweep_inflight(now);
      next_sweep = now + kSweepInterval;
    }

    // Try to push queued responses immediately instead of waiting one
    // poll round for POLLOUT.
    for (auto& [id, conn] : state.conns) {
      if (!conn.dead && !conn.outq.empty()) flush_conn(conn);
    }
  }

  // Loop exit (drain complete): close sockets; any still-running orphaned
  // queries are owned by the scheduler, which Stop() shuts down next.
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
