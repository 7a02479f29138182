/// \file protocol.cc
/// \brief Wire-protocol encoders and total, bounds-checked decoders.

#include "net/protocol.h"

#include <cstring>

#include "common/macros.h"
#include "common/string_util.h"

namespace dfdb {
namespace net {

namespace {

constexpr char kMagic[4] = {'D', 'F', 'W', '1'};

/// Hard cap on the column count of a wire schema and the tuple count of a
/// rows batch: both are re-validated against the body length, but rejecting
/// absurd counts first keeps error messages crisp.
constexpr uint32_t kMaxWireColumns = 4096;

// --- little-endian primitive writers -------------------------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutDouble(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// \brief Bounds-checked little-endian reader over a body slice. Every
/// accessor fails softly: once ok() is false all further reads return 0,
/// so decoders can read a whole message and check once.
class WireReader {
 public:
  explicit WireReader(Slice data) : data_(data) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }

  uint16_t U16() {
    if (!Need(2)) return 0;
    uint16_t v = 0;
    for (int i = 0; i < 2; ++i) {
      v |= static_cast<uint16_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
    }
    return v;
  }

  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
    }
    return v;
  }

  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
    }
    return v;
  }

  double Double() {
    const uint64_t bits = U64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  /// Length-prefixed string; the prefix is validated against the bytes
  /// actually remaining, so a huge prefix cannot trigger a huge read.
  std::string String() {
    const uint32_t len = U32();
    if (!ok_ || len > remaining()) {
      ok_ = false;
      return std::string();
    }
    std::string s(data_.data() + pos_, len);
    pos_ += len;
    return s;
  }

  /// Raw byte run of exactly \p len bytes.
  std::string Bytes(size_t len) {
    if (!Need(len)) return std::string();
    std::string s(data_.data() + pos_, len);
    pos_ += len;
    return s;
  }

 private:
  bool Need(size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  Slice data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Sanity caps for fragment messages: a fragment's exchange-input list and
/// a partition-routing key list are small by construction.
constexpr uint32_t kMaxFragmentInputs = 64;
constexpr uint32_t kMaxExchangeKeyCols = 64;
constexpr uint32_t kMaxExchangePartitions = 4096;

void PutSchemaFields(std::string* out, const Schema& schema) {
  PutU32(out, static_cast<uint32_t>(schema.num_columns()));
  for (const Column& col : schema.columns()) {
    PutU8(out, static_cast<uint8_t>(col.type));
    PutU32(out, static_cast<uint32_t>(col.width));
    PutString(out, col.name);
  }
}

/// Reads the column-list encoding produced by PutSchemaFields. Does not
/// require the reader to be exhausted, so schemas can be embedded inside
/// larger messages.
StatusOr<Schema> ReadSchemaFields(WireReader& r) {
  const uint32_t ncols = r.U32();
  if (!r.ok() || ncols > kMaxWireColumns) {
    return Status::Corruption("bad schema column count");
  }
  std::vector<Column> columns;
  columns.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    Column col;
    const uint8_t type = r.U8();
    if (type > static_cast<uint8_t>(ColumnType::kChar)) {
      return Status::Corruption(
          StrFormat("unknown column type %u", static_cast<unsigned>(type)));
    }
    col.type = static_cast<ColumnType>(type);
    const uint32_t width = r.U32();
    if (width == 0 || width > (1u << 20)) {
      return Status::Corruption("bad column width");
    }
    col.width = static_cast<int>(width);
    col.name = r.String();
    if (!r.ok()) return Status::Corruption("truncated schema");
    columns.push_back(std::move(col));
  }
  // Schema::Create re-validates widths against types and name uniqueness.
  return Schema::Create(std::move(columns));
}

std::string EncodeFrame(Opcode op, uint32_t request_id,
                        std::string_view body) {
  std::string out;
  out.reserve(kFrameHeaderBytes + body.size());
  out.append(kMagic, sizeof(kMagic));
  PutU8(&out, kProtocolVersion);
  PutU8(&out, static_cast<uint8_t>(op));
  PutU16(&out, 0);  // reserved
  PutU32(&out, static_cast<uint32_t>(body.size()));
  PutU32(&out, request_id);
  out.append(body.data(), body.size());
  return out;
}

Status Truncated(const char* what) {
  return Status::Corruption(StrFormat("truncated %s message", what));
}

}  // namespace

bool IsKnownOpcode(uint8_t op) {
  return op >= static_cast<uint8_t>(Opcode::kQuery) &&
         op <= static_cast<uint8_t>(Opcode::kExchangeCredit);
}

WireError StatusToWireError(const Status& status) {
  if (status.IsInvalidArgument() || status.IsNotFound()) {
    return WireError::kInvalidRequest;
  }
  if (status.IsUnavailable() || status.IsCancelled()) {
    return WireError::kShuttingDown;
  }
  return WireError::kInternal;
}

Status WireErrorToStatus(WireError code, const std::string& message) {
  switch (code) {
    case WireError::kInvalidRequest:
      return Status::InvalidArgument(message);
    case WireError::kRetryLater:
      return Status::ResourceExhausted(message);
    case WireError::kDeadlineExceeded:
      return Status::Aborted(message);
    case WireError::kShuttingDown:
      return Status::Unavailable(message);
    case WireError::kInternal:
      return Status::Internal(message);
  }
  return Status::Internal(message);
}

// ---------------------------------------------------------------------------
// Encoders
// ---------------------------------------------------------------------------

std::string EncodeQueryFrame(uint32_t request_id, const QueryRequest& query) {
  std::string body;
  PutU32(&body, query.deadline_ms);
  PutString(&body, query.text);
  return EncodeFrame(Opcode::kQuery, request_id, body);
}

std::string EncodeSchemaFrame(uint32_t request_id, const Schema& schema) {
  std::string body;
  PutSchemaFields(&body, schema);
  return EncodeFrame(Opcode::kSchema, request_id, body);
}

std::string EncodeRowsFrame(uint32_t request_id, const RowsBatch& rows) {
  std::string body;
  PutU32(&body, rows.num_tuples);
  PutU32(&body, rows.tuple_width);
  body.append(rows.tuples);
  return EncodeFrame(Opcode::kRows, request_id, body);
}

std::string EncodeStatsFrame(uint32_t request_id, const StatsMessage& stats) {
  std::string body;
  PutU64(&body, stats.total_rows);
  PutDouble(&body, stats.seconds);
  PutU32(&body, static_cast<uint32_t>(stats.counters.size()));
  for (const auto& [name, value] : stats.counters) {
    PutString(&body, name);
    PutU64(&body, value);
  }
  return EncodeFrame(Opcode::kStats, request_id, body);
}

std::string EncodeErrorFrame(uint32_t request_id, const ErrorMessage& error) {
  std::string body;
  PutU8(&body, static_cast<uint8_t>(error.code));
  PutString(&body, error.message);
  return EncodeFrame(Opcode::kError, request_id, body);
}

std::string EncodePingFrame(uint32_t request_id) {
  return EncodeFrame(Opcode::kPing, request_id, std::string_view());
}

std::string EncodePongFrame(uint32_t request_id) {
  return EncodeFrame(Opcode::kPong, request_id, std::string_view());
}

std::string EncodeFragmentFrame(uint32_t request_id,
                                const FragmentRequest& fragment) {
  std::string body;
  PutU32(&body, fragment.deadline_ms);
  PutString(&body, fragment.text);
  PutU32(&body, fragment.output_exchange_id);
  PutU8(&body, static_cast<uint8_t>(fragment.output_mode));
  PutU32(&body, fragment.output_partitions);
  PutU32(&body, static_cast<uint32_t>(fragment.output_key_cols.size()));
  for (const uint32_t col : fragment.output_key_cols) PutU32(&body, col);
  PutU32(&body, fragment.output_credits);
  PutU32(&body, static_cast<uint32_t>(fragment.inputs.size()));
  for (const FragmentInput& input : fragment.inputs) {
    PutU32(&body, input.exchange_id);
    PutString(&body, input.relation);
    PutSchemaFields(&body, input.schema);
  }
  return EncodeFrame(Opcode::kFragment, request_id, body);
}

std::string EncodeExchangeDataFrame(uint32_t request_id,
                                    const ExchangeBatch& batch) {
  std::string body;
  PutU32(&body, batch.exchange_id);
  PutU32(&body, batch.partition_id);
  PutU32(&body, batch.num_tuples);
  PutU32(&body, batch.tuple_width);
  body.append(batch.tuples);
  return EncodeFrame(Opcode::kExchangeData, request_id, body);
}

std::string EncodeExchangeEofFrame(uint32_t request_id,
                                   const ExchangeEofMessage& eof) {
  std::string body;
  PutU32(&body, eof.exchange_id);
  return EncodeFrame(Opcode::kExchangeEof, request_id, body);
}

std::string EncodeExchangeCreditFrame(uint32_t request_id,
                                      const ExchangeCreditMessage& credit) {
  std::string body;
  PutU32(&body, credit.exchange_id);
  PutU32(&body, credit.credits);
  return EncodeFrame(Opcode::kExchangeCredit, request_id, body);
}

// ---------------------------------------------------------------------------
// Decoders
// ---------------------------------------------------------------------------

StatusOr<FrameHeader> DecodeFrameHeader(Slice bytes,
                                        uint32_t max_frame_bytes) {
  if (bytes.size() != kFrameHeaderBytes) {
    return Status::Corruption(
        StrFormat("frame header must be %zu bytes, got %zu",
                  kFrameHeaderBytes, bytes.size()));
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad frame magic");
  }
  WireReader r(Slice(bytes.data() + sizeof(kMagic),
                     bytes.size() - sizeof(kMagic)));
  FrameHeader header;
  header.version = r.U8();
  header.opcode = r.U8();
  (void)r.U16();  // reserved
  header.body_len = r.U32();
  header.request_id = r.U32();
  if (header.version != kProtocolVersion) {
    return Status::Corruption(StrFormat(
        "protocol version mismatch: got %u, want %u",
        static_cast<unsigned>(header.version),
        static_cast<unsigned>(kProtocolVersion)));
  }
  if (header.body_len > max_frame_bytes) {
    return Status::Corruption(StrFormat(
        "frame body of %u bytes exceeds the %u-byte cap", header.body_len,
        max_frame_bytes));
  }
  return header;
}

StatusOr<QueryRequest> DecodeQuery(Slice body) {
  WireReader r(body);
  QueryRequest q;
  q.deadline_ms = r.U32();
  q.text = r.String();
  if (!r.ok() || r.remaining() != 0) return Truncated("query");
  return q;
}

StatusOr<Schema> DecodeSchema(Slice body) {
  WireReader r(body);
  DFDB_ASSIGN_OR_RETURN(Schema schema, ReadSchemaFields(r));
  if (r.remaining() != 0) return Truncated("schema");
  return schema;
}

StatusOr<RowsBatch> DecodeRows(Slice body) {
  WireReader r(body);
  RowsBatch rows;
  rows.num_tuples = r.U32();
  rows.tuple_width = r.U32();
  if (!r.ok()) return Truncated("rows");
  const uint64_t payload = static_cast<uint64_t>(rows.num_tuples) *
                           static_cast<uint64_t>(rows.tuple_width);
  if (payload != r.remaining()) {
    return Status::Corruption(StrFormat(
        "rows payload mismatch: %u tuples * %u bytes != %zu body bytes",
        rows.num_tuples, rows.tuple_width, r.remaining()));
  }
  rows.tuples = r.Bytes(static_cast<size_t>(payload));
  if (!r.ok()) return Truncated("rows");
  return rows;
}

StatusOr<StatsMessage> DecodeStats(Slice body) {
  WireReader r(body);
  StatsMessage stats;
  stats.total_rows = r.U64();
  stats.seconds = r.Double();
  const uint32_t n = r.U32();
  if (!r.ok()) return Truncated("stats");
  for (uint32_t i = 0; i < n; ++i) {
    std::string name = r.String();
    const uint64_t value = r.U64();
    if (!r.ok()) return Truncated("stats");
    stats.counters[std::move(name)] = value;
  }
  if (r.remaining() != 0) return Truncated("stats");
  return stats;
}

StatusOr<ErrorMessage> DecodeError(Slice body) {
  WireReader r(body);
  ErrorMessage error;
  const uint8_t code = r.U8();
  if (code < static_cast<uint8_t>(WireError::kInvalidRequest) ||
      code > static_cast<uint8_t>(WireError::kInternal)) {
    return Status::Corruption("unknown wire error code");
  }
  error.code = static_cast<WireError>(code);
  error.message = r.String();
  if (!r.ok() || r.remaining() != 0) return Truncated("error");
  return error;
}

StatusOr<FragmentRequest> DecodeFragment(Slice body) {
  WireReader r(body);
  FragmentRequest f;
  f.deadline_ms = r.U32();
  f.text = r.String();
  f.output_exchange_id = r.U32();
  const uint8_t mode = r.U8();
  if (!r.ok()) return Truncated("fragment");
  if (mode > static_cast<uint8_t>(ExchangeMode::kBroadcast)) {
    return Status::Corruption(
        StrFormat("unknown exchange mode %u", static_cast<unsigned>(mode)));
  }
  f.output_mode = static_cast<ExchangeMode>(mode);
  f.output_partitions = r.U32();
  if (!r.ok() || f.output_partitions == 0 ||
      f.output_partitions > kMaxExchangePartitions) {
    return Status::Corruption("bad fragment partition count");
  }
  const uint32_t nkeys = r.U32();
  if (!r.ok() || nkeys > kMaxExchangeKeyCols) {
    return Status::Corruption("bad fragment key column count");
  }
  f.output_key_cols.reserve(nkeys);
  for (uint32_t i = 0; i < nkeys; ++i) f.output_key_cols.push_back(r.U32());
  f.output_credits = r.U32();
  const uint32_t ninputs = r.U32();
  if (!r.ok() || ninputs > kMaxFragmentInputs) {
    return Status::Corruption("bad fragment input count");
  }
  f.inputs.reserve(ninputs);
  for (uint32_t i = 0; i < ninputs; ++i) {
    FragmentInput input;
    input.exchange_id = r.U32();
    input.relation = r.String();
    if (!r.ok() || input.relation.empty()) return Truncated("fragment");
    DFDB_ASSIGN_OR_RETURN(input.schema, ReadSchemaFields(r));
    f.inputs.push_back(std::move(input));
  }
  if (!r.ok() || r.remaining() != 0) return Truncated("fragment");
  return f;
}

StatusOr<ExchangeBatch> DecodeExchangeData(Slice body) {
  WireReader r(body);
  ExchangeBatch batch;
  batch.exchange_id = r.U32();
  batch.partition_id = r.U32();
  batch.num_tuples = r.U32();
  batch.tuple_width = r.U32();
  if (!r.ok()) return Truncated("exchange data");
  const uint64_t payload = static_cast<uint64_t>(batch.num_tuples) *
                           static_cast<uint64_t>(batch.tuple_width);
  if (payload != r.remaining()) {
    return Status::Corruption(StrFormat(
        "exchange payload mismatch: %u tuples * %u bytes != %zu body bytes",
        batch.num_tuples, batch.tuple_width, r.remaining()));
  }
  batch.tuples = r.Bytes(static_cast<size_t>(payload));
  if (!r.ok()) return Truncated("exchange data");
  return batch;
}

StatusOr<ExchangeEofMessage> DecodeExchangeEof(Slice body) {
  WireReader r(body);
  ExchangeEofMessage eof;
  eof.exchange_id = r.U32();
  if (!r.ok() || r.remaining() != 0) return Truncated("exchange eof");
  return eof;
}

StatusOr<ExchangeCreditMessage> DecodeExchangeCredit(Slice body) {
  WireReader r(body);
  ExchangeCreditMessage credit;
  credit.exchange_id = r.U32();
  credit.credits = r.U32();
  if (!r.ok() || r.remaining() != 0) return Truncated("exchange credit");
  if (credit.credits == 0) {
    return Status::Corruption("exchange credit grant of zero");
  }
  return credit;
}

StatusOr<std::optional<Frame>> FrameReader::Next() {
  if (!error_.ok()) return error_;
  // Compact the buffer once the consumed prefix dominates, so a long-lived
  // connection does not grow its buffer forever.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  if (buffer_.size() - consumed_ < kFrameHeaderBytes) return std::optional<Frame>();
  auto header = DecodeFrameHeader(
      Slice(buffer_.data() + consumed_, kFrameHeaderBytes), max_frame_bytes_);
  if (!header.ok()) {
    error_ = header.status();  // Sticky: framing is lost for good.
    return error_;
  }
  const size_t total = kFrameHeaderBytes + header->body_len;
  if (buffer_.size() - consumed_ < total) return std::optional<Frame>();
  Frame frame;
  frame.header = *header;
  frame.body.assign(buffer_.data() + consumed_ + kFrameHeaderBytes,
                    header->body_len);
  consumed_ += total;
  return std::optional<Frame>(std::move(frame));
}

}  // namespace net
}  // namespace dfdb
