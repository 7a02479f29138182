/// \file server.h
/// \brief The host-interface TCP server fronting the resident Scheduler.
///
/// The paper's Section 4.0 master controller "interfaces with the host
/// computer (receives compiled queries and returns results)". `Server` is
/// that interface made real: a poll-based TCP event loop that parses each
/// kQuery frame, plans it through the RAQL parser → analyzer → optimizer,
/// submits it to the shared `Scheduler`, and streams the result relation
/// back page by page as queries complete.
///
/// Design points (each one a load-bearing property, not plumbing — cf.
/// Rödiger et al., "High-Speed Query Processing over High-Speed Networks"):
///
/// - **Pipelining.** A connection may have many requests outstanding;
///   responses are sent in completion order, tagged by request_id.
/// - **Bounded admission.** At most `max_inflight` requests may be
///   submitted-but-unanswered across the server. Excess requests are
///   rejected immediately with kRetryLater — backpressure is pushed to the
///   client instead of queueing unboundedly in server memory.
/// - **Deadlines.** Each request carries an optional deadline; when it
///   expires before completion the client gets kDeadlineExceeded right
///   away while the engine-side query is left to finish and be discarded
///   (the engine has no preemption — Section 2.2's packets run to
///   completion).
/// - **Graceful drain.** Stop() stops accepting, answers every in-flight
///   request, flushes the sockets, then shuts the scheduler down.
/// - **Robustness.** A malformed frame closes only the offending
///   connection; a client disconnect mid-query never crashes the server or
///   leaks the in-flight query (the scheduler still owns and reaps it).
/// - **Fragments.** Distributed plan fragments and their exchange frames go
///   to a FragmentHost (net/fragment_host.h); the fragments it hands back
///   run through the same submit path as kQuery, outside the admission cap.

#ifndef DFDB_NET_SERVER_H_
#define DFDB_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

#include "common/macros.h"
#include "common/status.h"
#include "common/statusor.h"
#include "engine/scheduler.h"
#include "net/fragment_host.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "ra/optimizer.h"
#include "storage/storage_engine.h"

namespace dfdb {
namespace net {

/// \brief Configuration of one server instance.
struct ServerOptions {
  /// Address to bind. The default serves loopback only; set "0.0.0.0" to
  /// accept remote hosts.
  std::string host = "127.0.0.1";

  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;

  /// listen(2) backlog.
  int backlog = 64;

  /// Admission cap: maximum requests submitted to the scheduler and not
  /// yet answered, across all connections. Requests beyond the cap are
  /// rejected with kRetryLater. 0 rejects everything (useful in tests).
  int max_inflight = 64;

  /// Maximum concurrently-open client connections; further accepts are
  /// refused (closed immediately).
  int max_connections = 256;

  /// Per-frame body cap; a bigger length prefix is a protocol error.
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Deadline applied to requests that do not carry their own; 0 = none.
  uint32_t default_deadline_ms = 0;

  /// Scheduler (master controller) configuration. The worker pool is
  /// started by the Scheduler constructor unless defer_worker_start is set
  /// (tests use deferral to freeze the engine deterministically).
  SchedulerOptions scheduler;
};

/// Binds \p host:\p port (0 picks an ephemeral port, stored in
/// \p bound_port) and listens; Server and dist::FrontServer share it.
/// InvalidArgument for an unparsable address, Unavailable if unbindable.
StatusOr<int> ListenTcp(const std::string& host, uint16_t port, int backlog,
                        uint16_t* bound_port);

/// \brief TCP front door over one StorageEngine + resident Scheduler.
///
/// Lifecycle: construct → Start() → serve → Stop(). Stop() (and the
/// destructor) drains gracefully and is idempotent. All socket handling
/// runs on one internal event-loop thread; query execution runs on the
/// scheduler's worker pool.
class Server {
 public:
  Server(StorageEngine* storage, ServerOptions options);
  ~Server();
  DFDB_DISALLOW_COPY(Server);

  /// Binds, listens, and starts the event loop. Fails with Unavailable if
  /// the address cannot be bound.
  Status Start();

  /// Graceful drain: stop accepting connections and queries, answer every
  /// in-flight request, flush and close sockets, shut the scheduler down.
  /// Idempotent; also called by the destructor.
  void Stop();

  /// Bound TCP port (after a successful Start()).
  uint16_t port() const { return port_; }

  const ServerOptions& options() const { return options_; }
  const ServerCounters& counters() const { return counters_; }

  /// Registers net.* counters/gauges plus the scheduler's engine.sched.*
  /// into \p registry, so one RunReport covers host → MC → engine.
  void SnapshotMetrics(obs::MetricsRegistry* registry) const;

  /// Lifetime engine aggregate (passthrough to Scheduler::AggregateStats).
  ExecStats AggregateStats() const { return scheduler_.AggregateStats(); }

 private:
  struct LoopState;  // Event-loop-private state (connections, inflight).

  void Loop();
  void Wake();

  StorageEngine* storage_;
  const ServerOptions options_;
  Scheduler scheduler_;
  Optimizer optimizer_;
  ServerCounters counters_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: Stop() wakes the poll loop.
  uint16_t port_ = 0;
  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> active_connections_{0};
  std::atomic<uint64_t> inflight_now_{0};

  std::mutex lifecycle_mu_;
  bool started_ = false;
  bool stopped_ = false;
  std::thread loop_thread_;
};

}  // namespace net
}  // namespace dfdb

#endif  // DFDB_NET_SERVER_H_
