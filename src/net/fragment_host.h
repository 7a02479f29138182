/// \file fragment_host.h
/// \brief The worker side of the exchange protocol: the plan fragments a
/// coordinator pushes to a server (see dist/coordinator.h).
///
/// A fragment's inputs stream into coordinator-named temp relations
/// (kExchangeData, closed by kExchangeEof); then its text runs as an
/// ordinary query, and the result goes back as kExchangeData frames
/// released one per output credit (kExchangeCredit), then kStats — or
/// kError. `FragmentHost` holds that state and knows no socket, poll set,
/// scheduler or optimizer: the server loop decodes the frames, passes the
/// connection's out-queue, and submits the fragments the host hands back
/// like any kQuery. Only the loop thread calls it.

#ifndef DFDB_NET_FRAGMENT_HOST_H_
#define DFDB_NET_FRAGMENT_HOST_H_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/statusor.h"
#include "engine/query_result.h"
#include "net/protocol.h"
#include "obs/counters.h"
#include "storage/storage_engine.h"

namespace dfdb {
namespace net {

/// \brief Server-wide counters: the net.* rows of obs/counters.h.
struct NetCounters {
  DFDB_PLAIN_COUNTERS(NetCounters, DFDB_NET_COUNTERS)
};
/// Their relaxed-atomic twin, bumped by the event loop and its FragmentHost.
struct ServerCounters {
  DFDB_ATOMIC_COUNTERS(NetCounters, DFDB_NET_COUNTERS)
};

/// The terminal kStats frame of a finished query or fragment: row count,
/// wall seconds and the per-query counters.
std::string EncodeResultStatsFrame(uint32_t request_id,
                                   const QueryResult& result);

/// (connection id, output exchange id): exchange ids are unique per
/// coordinator, and keying by connection keeps coordinators apart.
using FragmentKey = std::pair<uint64_t, uint32_t>;

/// A fragment whose inputs are all in: the server submits its text, then
/// reports the outcome through Complete().
struct ReadyFragment {
  FragmentKey key;
  uint32_t request_id = 0;
  std::string text;
  uint32_t deadline_ms = 0;  ///< 0 = none.
};

/// \brief The fragments one server loop hosts, keyed by FragmentKey.
class FragmentHost {
 public:
  using OutQueue = std::deque<std::string>;

  /// \p max_frame_bytes sizes the output batches; \p counters must outlive
  /// the host.
  FragmentHost(StorageEngine* storage, uint32_t max_frame_bytes,
               ServerCounters* counters);
  /// Drops every temp relation still open.
  ~FragmentHost();
  DFDB_DISALLOW_COPY(FragmentHost);

  // Frame handlers for connection \p conn; replies go to \p out. The
  // fragment and EOF handlers return the fragment the frame made ready.
  std::optional<ReadyFragment> OnFragment(uint64_t conn, uint32_t request_id,
                                          FragmentRequest spec,
                                          OutQueue* out);
  void OnExchangeData(uint64_t conn, uint32_t request_id,
                      const ExchangeBatch& batch, OutQueue* out);
  std::optional<ReadyFragment> OnExchangeEof(uint64_t conn,
                                             uint32_t request_id,
                                             const ExchangeEofMessage& eof,
                                             OutQueue* out);
  void OnExchangeCredit(uint64_t conn, const ExchangeCreditMessage& credit,
                        OutQueue* out);

  /// A ready fragment's query finished, or could not be submitted. \p out
  /// is null when nobody reads the answer anymore.
  void Complete(FragmentKey key, const StatusOr<QueryResult>& result,
                OutQueue* out);

  /// Tears down the connection's fragments that are not running; a running
  /// one waits for its Complete().
  void DropConnection(uint64_t conn);

 private:
  struct Fragment {
    /// Inputs arriving; query submitted; output waiting on credits.
    enum class Phase : uint8_t { kLoading, kRunning, kStreaming };
    Phase phase = Phase::kLoading;
    uint32_t request_id = 0;
    FragmentRequest spec;
    std::vector<std::string> temp_relations;
    int inputs_pending = 0;
    std::deque<std::string> pending;  ///< Encoded kExchangeData frames.
    std::string terminal;             ///< Encoded kStats frame.
    uint32_t out_credits = 0;         ///< Output credits the peer granted.
  };
  /// One inbound exchange stream feeding a fragment's temp relation.
  struct Input {
    FragmentKey fragment;
    HeapFile* heap = nullptr;  ///< Borrowed; valid until the temp is dropped.
    bool eof = false;
  };

  /// Commits the temp relations and hands the fragment over to run.
  std::optional<ReadyFragment> Ready(FragmentKey key, OutQueue* out);
  /// Answers \p status for the fragment and tears it down.
  void Fail(FragmentKey key, const Status& status, OutQueue* out);
  /// The open input \p exchange_id of \p conn, or null once the frame is
  /// answered kInvalidRequest: no such input, or \p after_eof.
  Input* OpenInput(uint64_t conn, uint32_t request_id, uint32_t exchange_id,
                   const char* after_eof, OutQueue* out);
  /// Cuts a finished result into partition-routed kExchangeData frames.
  Status Stage(Fragment* frag, const QueryResult& result);
  /// Releases staged batches, one per credit; after the last, sends the
  /// terminal frame and tears the fragment down.
  void Flush(FragmentKey key, OutQueue* out);
  /// Drops the temp relations; forgets the fragment and its inputs.
  void Teardown(FragmentKey key);

  StorageEngine* storage_;
  const uint32_t max_frame_bytes_;
  ServerCounters* counters_;
  std::map<FragmentKey, Fragment> fragments_;
  /// Keyed by (connection id, input exchange id).
  std::map<FragmentKey, Input> inputs_;
};

}  // namespace net
}  // namespace dfdb

#endif  // DFDB_NET_FRAGMENT_HOST_H_
