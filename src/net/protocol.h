/// \file protocol.h
/// \brief The dfdb wire protocol: versioned, length-prefixed binary frames.
///
/// Boral & DeWitt position the machine as a *back-end*: "queries are
/// entered into the host computer and passed to the back-end machine for
/// execution" (Section 4.0). This protocol is the host↔back-end interface:
/// a client ships RAQL query text to the master controller (the resident
/// Scheduler behind `dfdb::net::Server`) and receives the typed result
/// relation back as a schema frame plus a stream of tuple-batch frames,
/// closed by a stats frame (success) or an error frame (failure).
///
/// Frame layout (all integers little-endian):
///
///   offset  size  field
///        0     4  magic      "DFW1"
///        4     1  version    kProtocolVersion
///        5     1  opcode     Opcode
///        6     2  reserved   0
///        8     4  body_len   bytes following the header
///       12     4  request_id client-assigned, echoed on every response
///
/// Requests may be pipelined: a client can send several kQuery frames
/// before reading responses; the server tags every response frame with the
/// originating request_id. Responses to one request are contiguous and
/// ordered (schema, rows*, stats|error), but responses to different
/// requests may interleave in completion order.
///
/// Every decoder is bounds-checked and total: arbitrary bytes produce a
/// Status error, never undefined behavior — the server keeps running when a
/// client sends garbage, and vice versa.

#ifndef DFDB_NET_PROTOCOL_H_
#define DFDB_NET_PROTOCOL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "catalog/schema.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/statusor.h"

namespace dfdb {
namespace net {

/// Protocol version carried in every frame header. A server rejects frames
/// from a different version with a clean error.
inline constexpr uint8_t kProtocolVersion = 1;

/// Frame header size on the wire.
inline constexpr size_t kFrameHeaderBytes = 16;

/// Default sanity cap on one frame's body. A length prefix above the
/// configured cap is a protocol error, not an allocation.
inline constexpr uint32_t kDefaultMaxFrameBytes = 4u << 20;

/// \brief Frame types. kQuery and kPing travel client→server; kSchema
/// through kPong travel server→client. The exchange family (kFragment,
/// kExchangeData, kExchangeEof, kExchangeCredit) carries distributed plan
/// fragments and partition-routed row batches between a coordinator and
/// workers — see dist/coordinator.h.
enum class Opcode : uint8_t {
  kQuery = 1,   ///< RAQL text + deadline.
  kSchema = 2,  ///< Result schema (first response frame of a query).
  kRows = 3,    ///< One batch of fixed-width result tuples.
  kStats = 4,   ///< Terminal success frame: row count + ExecStats counters.
  kError = 5,   ///< Terminal failure frame: WireError + message.
  kPing = 6,    ///< Liveness probe.
  kPong = 7,    ///< Liveness reply.
  // --- distributed execution (coordinator ↔ worker) ---
  kFragment = 8,       ///< Plan fragment: RAQL + exchange input/output spec.
  kExchangeData = 9,   ///< One partition-routed batch of exchange tuples.
  kExchangeEof = 10,   ///< No more data for one exchange input.
  kExchangeCredit = 11,  ///< Flow control: grants more kExchangeData sends.
};

/// True for opcodes this protocol version defines. Unknown opcodes are
/// skippable (the length prefix still frames them) but must be answered
/// with kError/kInvalidRequest by a server.
bool IsKnownOpcode(uint8_t op);

/// \brief Structured error category carried by kError frames.
///
/// kRetryLater is the backpressure signal: the server's admission cap is
/// full and the request was rejected *before* any execution, so a client
/// may safely retry it after a backoff — including writers.
enum class WireError : uint8_t {
  kInvalidRequest = 1,    ///< Parse/analyze/optimize failure, bad frame.
  kRetryLater = 2,        ///< Admission cap reached; retry after backoff.
  kDeadlineExceeded = 3,  ///< Per-request deadline expired server-side.
  kShuttingDown = 4,      ///< Server is draining; do not retry here.
  kInternal = 5,          ///< Execution failure.
};

/// Maps an engine/planner status onto a wire error: InvalidArgument and
/// NotFound → kInvalidRequest, Unavailable and Cancelled → kShuttingDown,
/// anything else → kInternal. Every server front door answers with it.
WireError StatusToWireError(const Status& status);

/// Maps a wire error onto the repo's StatusCode vocabulary (the inverse of
/// StatusToWireError): kRetryLater → ResourceExhausted,
/// kDeadlineExceeded → Aborted, kShuttingDown → Unavailable, ...
Status WireErrorToStatus(WireError code, const std::string& message);

/// \brief Decoded frame header.
struct FrameHeader {
  uint8_t version = kProtocolVersion;
  uint8_t opcode = 0;
  uint32_t body_len = 0;
  uint32_t request_id = 0;
};

/// \brief One complete frame (header + body) as surfaced by FrameReader.
struct Frame {
  FrameHeader header;
  std::string body;
};

// ---------------------------------------------------------------------------
// Message payloads
// ---------------------------------------------------------------------------

/// kQuery body.
struct QueryRequest {
  /// Milliseconds the client is willing to wait; 0 = no deadline.
  uint32_t deadline_ms = 0;
  /// RAQL query text (see ra/parser.h).
  std::string text;
};

/// kRows body: a batch of packed fixed-width tuples (one result page).
struct RowsBatch {
  uint32_t num_tuples = 0;
  uint32_t tuple_width = 0;
  /// Exactly num_tuples * tuple_width bytes.
  std::string tuples;
};

/// kStats body: terminal success summary for one query.
struct StatsMessage {
  uint64_t total_rows = 0;
  /// Server-side wall seconds from submission to completion.
  double seconds = 0;
  /// Per-query counter snapshot (the engine.* naming scheme).
  std::map<std::string, uint64_t> counters;
};

/// kError body.
struct ErrorMessage {
  WireError code = WireError::kInternal;
  std::string message;
};

// --- distributed execution messages -----------------------------------------

/// Exchange flow control: credits initially granted to a sender per
/// exchange. One credit allows one kExchangeData frame; the receiver grants
/// credits back (kExchangeCredit) as it consumes batches, and a sender
/// holds batches back while it has none.
inline constexpr uint32_t kExchangeInitialCredits = 8;

/// How a fragment routes its output stream.
enum class ExchangeMode : uint8_t {
  kGather = 0,     ///< Everything to partition 0 (the coordinator merge).
  kPartition = 1,  ///< Hash on key columns, route per partition.
  kBroadcast = 2,  ///< Full copy to every partition.
};

/// One exchange-fed input of a fragment: the worker materializes the
/// incoming batches into a process-local temp relation named \p relation
/// (created with \p schema), then runs the fragment text against it.
struct FragmentInput {
  uint32_t exchange_id = 0;
  std::string relation;
  Schema schema;
};

/// kFragment body: one plan fragment dispatched by the coordinator.
///
/// The fragment itself is RAQL text (the same language kQuery carries);
/// exchange inputs appear in the text as scans of the temp relations
/// declared in \p inputs. The worker answers with kExchangeData frames
/// (partition-routed per \p output_mode) and a terminal kStats, or kError.
struct FragmentRequest {
  uint32_t deadline_ms = 0;
  std::string text;
  /// Output stream identity: every kExchangeData the worker sends back for
  /// this fragment carries this exchange id.
  uint32_t output_exchange_id = 0;
  ExchangeMode output_mode = ExchangeMode::kGather;
  /// Partition count for kPartition routing (kGather/kBroadcast: receiver
  /// fan-out, informational).
  uint32_t output_partitions = 1;
  /// Key column indices (into the fragment's output schema) hashed for
  /// kPartition routing; empty for gather/broadcast.
  std::vector<uint32_t> output_key_cols;
  /// Output credits initially granted to the worker by the coordinator.
  uint32_t output_credits = kExchangeInitialCredits;
  std::vector<FragmentInput> inputs;
};

/// kExchangeData body: one batch of packed fixed-width tuples routed to
/// \p partition_id of exchange \p exchange_id.
struct ExchangeBatch {
  uint32_t exchange_id = 0;
  uint32_t partition_id = 0;
  uint32_t num_tuples = 0;
  uint32_t tuple_width = 0;
  /// Exactly num_tuples * tuple_width bytes.
  std::string tuples;
};

/// kExchangeEof body: the sender has no more data for this exchange input.
struct ExchangeEofMessage {
  uint32_t exchange_id = 0;
};

/// kExchangeCredit body: grants \p credits more kExchangeData sends.
struct ExchangeCreditMessage {
  uint32_t exchange_id = 0;
  uint32_t credits = 0;
};

// ---------------------------------------------------------------------------
// Encoding (always succeeds; sizes are caller-controlled)
// ---------------------------------------------------------------------------

std::string EncodeQueryFrame(uint32_t request_id, const QueryRequest& query);
std::string EncodeSchemaFrame(uint32_t request_id, const Schema& schema);
std::string EncodeRowsFrame(uint32_t request_id, const RowsBatch& rows);
std::string EncodeStatsFrame(uint32_t request_id, const StatsMessage& stats);
std::string EncodeErrorFrame(uint32_t request_id, const ErrorMessage& error);
std::string EncodePingFrame(uint32_t request_id);
std::string EncodePongFrame(uint32_t request_id);
std::string EncodeFragmentFrame(uint32_t request_id,
                                const FragmentRequest& fragment);
std::string EncodeExchangeDataFrame(uint32_t request_id,
                                    const ExchangeBatch& batch);
std::string EncodeExchangeEofFrame(uint32_t request_id,
                                   const ExchangeEofMessage& eof);
std::string EncodeExchangeCreditFrame(uint32_t request_id,
                                      const ExchangeCreditMessage& credit);

// ---------------------------------------------------------------------------
// Decoding (total: every input yields a value or a Status, never UB)
// ---------------------------------------------------------------------------

/// Decodes and validates a frame header from exactly kFrameHeaderBytes
/// bytes: magic and version must match, and body_len must not exceed
/// \p max_frame_bytes. The opcode is NOT validated here (unknown opcodes
/// stay skippable); consumers check IsKnownOpcode.
StatusOr<FrameHeader> DecodeFrameHeader(Slice bytes,
                                        uint32_t max_frame_bytes);

StatusOr<QueryRequest> DecodeQuery(Slice body);
StatusOr<Schema> DecodeSchema(Slice body);
StatusOr<RowsBatch> DecodeRows(Slice body);
StatusOr<StatsMessage> DecodeStats(Slice body);
StatusOr<ErrorMessage> DecodeError(Slice body);
StatusOr<FragmentRequest> DecodeFragment(Slice body);
StatusOr<ExchangeBatch> DecodeExchangeData(Slice body);
StatusOr<ExchangeEofMessage> DecodeExchangeEof(Slice body);
StatusOr<ExchangeCreditMessage> DecodeExchangeCredit(Slice body);

/// \brief Incremental frame assembler over a byte stream.
///
/// Feed arbitrarily-chunked bytes with Append(); Next() yields complete
/// frames in order. A malformed header (bad magic/version, oversized
/// length) makes the stream unrecoverable: the error is sticky and the
/// connection should be closed.
class FrameReader {
 public:
  explicit FrameReader(uint32_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Append(const char* data, size_t len) { buffer_.append(data, len); }

  /// Returns the next complete frame, std::nullopt when more bytes are
  /// needed, or a sticky error when the stream is corrupt.
  StatusOr<std::optional<Frame>> Next();

  /// Bytes buffered but not yet consumed by Next().
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  uint32_t max_frame_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;
  Status error_ = Status::OK();
};

}  // namespace net
}  // namespace dfdb

#endif  // DFDB_NET_PROTOCOL_H_
