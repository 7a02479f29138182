/// \file net_server_test.cc
/// \brief End-to-end server tests: correctness, pipelining, backpressure,
/// deadlines, disconnect robustness, and shutdown.
///
/// Deterministic hostile-client cases use raw sockets (partial frames,
/// mid-query disconnect, unknown opcodes); deterministic deadline/orphan
/// cases freeze the engine with SchedulerOptions::defer_worker_start so a
/// submitted query provably never completes.

#include "net/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/reference.h"
#include "net/client.h"
#include "ra/parser.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace dfdb {
namespace net {
namespace {

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = std::make_unique<StorageEngine>(/*default_page_bytes=*/1000);
    ASSERT_OK_AND_ASSIGN(auto r1, GenerateRelation(storage_.get(), "alpha",
                                                   500, /*seed=*/7));
    ASSERT_OK_AND_ASSIGN(auto r2, GenerateRelation(storage_.get(), "beta",
                                                   200, /*seed=*/8));
    (void)r1;
    (void)r2;
  }

  ServerOptions Options(int max_inflight = 16) const {
    ServerOptions options;
    options.max_inflight = max_inflight;
    options.scheduler.exec.num_processors = 4;
    options.scheduler.exec.page_bytes = 1000;
    options.scheduler.exec.local_memory_pages = 16;
    options.scheduler.exec.disk_cache_pages = 64;
    return options;
  }

  std::unique_ptr<StorageEngine> storage_;
};

/// A raw TCP connection for hostile-client scenarios the Client library
/// (correctly) refuses to produce.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawConn() { Close(); }

  bool connected() const { return connected_; }

  void Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<size_t>(n);
    }
  }

  /// Blocks (with a 5 s cap via SO_RCVTIMEO) for the next complete frame.
  StatusOr<Frame> ReadFrame() {
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    char buf[4096];
    for (;;) {
      DFDB_ASSIGN_OR_RETURN(auto next, reader_.Next());
      if (next.has_value()) return std::move(*next);
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return Status::IOError("connection closed or timed out");
      reader_.Append(buf, static_cast<size_t>(n));
    }
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  FrameReader reader_;
};

TEST_F(NetServerTest, RoundTripMatchesReferenceExecutor) {
  Server server(storage_.get(), Options());
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(Client client,
                       Client::Connect("127.0.0.1", server.port()));

  const std::string text = "restrict(alpha, k1000 < 250)";
  ASSERT_OK_AND_ASSIGN(RemoteResult remote, client.Execute(text));

  ASSERT_OK_AND_ASSIGN(auto plan, ParseQuery(text));
  ReferenceExecutor reference(storage_.get());
  ASSERT_OK_AND_ASSIGN(QueryResult expected, reference.Execute(*plan));

  EXPECT_EQ(remote.num_tuples, expected.num_tuples());
  EXPECT_EQ(remote.schema, expected.schema());
  // Same bag of tuples: compare raw encodings, order-independent.
  std::vector<std::string> got;
  remote.ForEachTuple([&](const TupleView& t) {
    got.push_back(std::string(t.raw().data(), t.raw().size()));
  });
  std::sort(got.begin(), got.end());
  std::vector<std::string> want;
  for (const PagePtr& page : expected.pages()) {
    for (int i = 0; i < page->num_tuples(); ++i) {
      want.push_back(
          std::string(page->tuple(i).data(), page->tuple(i).size()));
    }
  }
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  // Per-query engine counters came back over the wire.
  EXPECT_GT(remote.counters.count("engine.tasks_executed"), 0u);
  server.Stop();
}

TEST_F(NetServerTest, EmptyResultAndWritersWork) {
  Server server(storage_.get(), Options());
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(Client client,
                       Client::Connect("127.0.0.1", server.port()));

  ASSERT_OK_AND_ASSIGN(RemoteResult empty,
                       client.Execute("restrict(alpha, k1000 < 0)"));
  EXPECT_EQ(empty.num_tuples, 0u);

  ASSERT_OK_AND_ASSIGN(
      RemoteResult append,
      client.Execute("append(restrict(alpha, k1000 < 50), beta)"));
  ASSERT_OK_AND_ASSIGN(RemoteResult del,
                       client.Execute("delete(beta, k1000 < 50)"));
  (void)append;
  (void)del;
  server.Stop();
}

TEST_F(NetServerTest, PipelinedRequestsAllAnswered) {
  Server server(storage_.get(), Options());
  ASSERT_OK(server.Start());
  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());

  // Ship several queries before reading anything; every request must get a
  // terminal frame (stats or error) tagged with its id.
  constexpr int kPipelined = 6;
  std::string wire;
  for (uint32_t id = 1; id <= kPipelined; ++id) {
    QueryRequest q;
    q.text = "restrict(alpha, k1000 < 100)";
    wire += EncodeQueryFrame(id, q);
  }
  conn.Send(wire);

  std::vector<bool> done(kPipelined + 1, false);
  int terminals = 0;
  while (terminals < kPipelined) {
    ASSERT_OK_AND_ASSIGN(Frame frame, conn.ReadFrame());
    const auto op = static_cast<Opcode>(frame.header.opcode);
    ASSERT_GE(frame.header.request_id, 1u);
    ASSERT_LE(frame.header.request_id, static_cast<uint32_t>(kPipelined));
    if (op == Opcode::kStats) {
      EXPECT_FALSE(done[frame.header.request_id]);
      done[frame.header.request_id] = true;
      ++terminals;
    } else {
      ASSERT_TRUE(op == Opcode::kSchema || op == Opcode::kRows);
    }
  }
  server.Stop();
}

TEST_F(NetServerTest, InvalidQueryGetsErrorAndConnectionSurvives) {
  Server server(storage_.get(), Options());
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(Client client,
                       Client::Connect("127.0.0.1", server.port()));

  auto bad = client.Execute("restrict(alpha, ");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument()) << bad.status();
  auto missing = client.Execute("no_such_relation");
  ASSERT_FALSE(missing.ok());
  // The same connection keeps working.
  ASSERT_OK_AND_ASSIGN(RemoteResult ok,
                       client.Execute("restrict(alpha, k1000 < 10)"));
  EXPECT_GT(server.counters().invalid_requests.load(), 0u);
  (void)ok;
  server.Stop();
}

TEST_F(NetServerTest, AdmissionCapZeroRejectsWithRetryLater) {
  // max_inflight=0 deterministically rejects every query: the client's
  // retry budget exhausts and surfaces ResourceExhausted.
  Server server(storage_.get(), Options(/*max_inflight=*/0));
  ASSERT_OK(server.Start());
  ClientOptions copts;
  copts.max_retries = 2;
  copts.retry_backoff_ms = 1;
  ASSERT_OK_AND_ASSIGN(Client client,
                       Client::Connect("127.0.0.1", server.port(), copts));
  auto result = client.Execute("restrict(alpha, k1000 < 10)");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
  // 1 initial + 2 retries, all rejected pre-execution.
  EXPECT_EQ(server.counters().rejected.load(), 3u);
  EXPECT_EQ(server.AggregateStats().tasks_executed, 0u);
  server.Stop();
}

TEST_F(NetServerTest, PartialFrameThenDisconnectIsHarmless) {
  Server server(storage_.get(), Options());
  ASSERT_OK(server.Start());
  {
    RawConn conn(server.port());
    ASSERT_TRUE(conn.connected());
    QueryRequest q;
    q.text = "restrict(alpha, k1000 < 100)";
    const std::string frame = EncodeQueryFrame(1, q);
    conn.Send(frame.substr(0, frame.size() / 2));  // Half a frame...
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }  // ...then vanish.

  // The server neither crashed nor leaked a query, and still serves.
  ASSERT_OK_AND_ASSIGN(Client client,
                       Client::Connect("127.0.0.1", server.port()));
  ASSERT_OK_AND_ASSIGN(RemoteResult ok,
                       client.Execute("restrict(alpha, k1000 < 10)"));
  (void)ok;
  for (int i = 0; i < 100 && server.counters().disconnects.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server.counters().disconnects.load(), 1u);
  EXPECT_EQ(server.counters().protocol_errors.load(), 0u);
  server.Stop();
}

TEST_F(NetServerTest, CorruptFrameClosesOnlyThatConnection) {
  Server server(storage_.get(), Options());
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(Client good,
                       Client::Connect("127.0.0.1", server.port()));
  {
    RawConn evil(server.port());
    ASSERT_TRUE(evil.connected());
    evil.Send(std::string(64, '\xff'));  // Garbage: bad magic.
    auto frame = evil.ReadFrame();
    EXPECT_FALSE(frame.ok());  // Server closed the corrupt stream.
  }
  for (int i = 0; i < 100 && server.counters().protocol_errors.load() == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server.counters().protocol_errors.load(), 1u);
  // The good connection is unaffected.
  ASSERT_OK_AND_ASSIGN(RemoteResult ok,
                       good.Execute("restrict(alpha, k1000 < 10)"));
  (void)ok;
  server.Stop();
}

TEST_F(NetServerTest, UnknownOpcodeAnsweredWithoutDroppingConnection) {
  Server server(storage_.get(), Options());
  ASSERT_OK(server.Start());
  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());

  std::string frame = EncodePingFrame(41);
  frame[5] = static_cast<char>(0xee);  // Unknown-but-framed opcode.
  conn.Send(frame);
  ASSERT_OK_AND_ASSIGN(Frame reply, conn.ReadFrame());
  EXPECT_EQ(reply.header.opcode, static_cast<uint8_t>(Opcode::kError));
  EXPECT_EQ(reply.header.request_id, 41u);
  ASSERT_OK_AND_ASSIGN(ErrorMessage error, DecodeError(reply.body));
  EXPECT_EQ(error.code, WireError::kInvalidRequest);

  // Framing survived: a ping on the same connection still works.
  conn.Send(EncodePingFrame(42));
  ASSERT_OK_AND_ASSIGN(Frame pong, conn.ReadFrame());
  EXPECT_EQ(pong.header.opcode, static_cast<uint8_t>(Opcode::kPong));
  EXPECT_EQ(pong.header.request_id, 42u);
  server.Stop();
}

TEST_F(NetServerTest, MidQueryDisconnectOrphansWithoutLeakOrCrash) {
  // Freeze the engine: the scheduler admits but never executes, so the
  // in-flight query provably outlives its client.
  ServerOptions options = Options();
  options.scheduler.defer_worker_start = true;
  Server server(storage_.get(), options);
  ASSERT_OK(server.Start());
  {
    RawConn conn(server.port());
    ASSERT_TRUE(conn.connected());
    QueryRequest q;
    q.text = "restrict(alpha, k1000 < 100)";
    conn.Send(EncodeQueryFrame(1, q));
    // Wait until the server has actually admitted it.
    for (int i = 0; i < 200 && server.counters().requests.load() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(server.counters().requests.load(), 1u);
  }  // Client vanishes mid-query.

  // Stop() must not hang on the orphan (the frozen scheduler cancels it)
  // and must account for it.
  server.Stop();
  EXPECT_EQ(server.counters().orphaned_results.load(), 1u);
}

TEST_F(NetServerTest, DeadlineExpiresDeterministically) {
  // Frozen engine + 30 ms deadline: the deadline must fire (the query can
  // never complete) and the client gets a clean Aborted.
  ServerOptions options = Options();
  options.scheduler.defer_worker_start = true;
  Server server(storage_.get(), options);
  ASSERT_OK(server.Start());
  ASSERT_OK_AND_ASSIGN(Client client,
                       Client::Connect("127.0.0.1", server.port()));
  auto result = client.Execute("restrict(alpha, k1000 < 100)",
                               /*deadline_ms=*/30);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsAborted()) << result.status();
  EXPECT_EQ(server.counters().deadline_expired.load(), 1u);
  // The connection survives a deadline miss.
  EXPECT_OK(client.Ping());
  server.Stop();
}

TEST_F(NetServerTest, ConcurrentClientsAllSucceed) {
  // The tsan target of this suite: many connection handlers submitting
  // into one scheduler while another thread snapshots metrics.
  Server server(storage_.get(), Options(/*max_inflight=*/32));
  ASSERT_OK(server.Start());

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      const char* kQueries[] = {
          "restrict(alpha, k1000 < 200)",
          "project(beta, [k10, k2], dedup)",
          "agg(alpha, [k2], [count() as n])",
      };
      for (int i = 0; i < kQueriesPerClient; ++i) {
        auto result =
            client->Execute(kQueries[(c + i) % 3]);
        if (!result.ok()) failures.fetch_add(1);
      }
    });
  }
  std::atomic<bool> stop_metrics{false};
  std::thread metrics([&] {
    while (!stop_metrics.load()) {
      obs::MetricsRegistry registry;
      server.SnapshotMetrics(&registry);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& t : threads) t.join();
  stop_metrics.store(true);
  metrics.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.counters().requests.load(),
            static_cast<uint64_t>(kClients * kQueriesPerClient));
  server.Stop();
}

TEST_F(NetServerTest, StopIsIdempotentAndGraceful) {
  auto server = std::make_unique<Server>(storage_.get(), Options());
  ASSERT_OK(server->Start());
  ASSERT_OK_AND_ASSIGN(Client client,
                       Client::Connect("127.0.0.1", server->port()));
  ASSERT_OK_AND_ASSIGN(RemoteResult ok,
                       client.Execute("restrict(alpha, k1000 < 10)"));
  (void)ok;
  server->Stop();
  server->Stop();  // Idempotent.
  // Post-drain, new queries on the old connection fail cleanly.
  auto late = client.Execute("restrict(alpha, k1000 < 10)");
  EXPECT_FALSE(late.ok());
  server.reset();  // Destructor after Stop() is fine too.
}

TEST_F(NetServerTest, ExchangeDataForUnknownExchangeRejected) {
  Server server(storage_.get(), Options());
  ASSERT_OK(server.Start());
  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());

  // A batch for an exchange no fragment ever opened: answered with
  // kInvalidRequest, counted, and the connection keeps working.
  ExchangeBatch batch;
  batch.exchange_id = 99;
  batch.num_tuples = 1;
  batch.tuple_width = 4;
  batch.tuples = "abcd";
  conn.Send(EncodeExchangeDataFrame(7, batch));
  ASSERT_OK_AND_ASSIGN(Frame reply, conn.ReadFrame());
  EXPECT_EQ(reply.header.opcode, static_cast<uint8_t>(Opcode::kError));
  ASSERT_OK_AND_ASSIGN(ErrorMessage error, DecodeError(reply.body));
  EXPECT_EQ(error.code, WireError::kInvalidRequest);
  EXPECT_EQ(server.counters().exchange_unknown.load(), 1u);

  // Same for an EOF with no open input.
  conn.Send(EncodeExchangeEofFrame(8, ExchangeEofMessage{99}));
  ASSERT_OK_AND_ASSIGN(Frame reply2, conn.ReadFrame());
  EXPECT_EQ(reply2.header.opcode, static_cast<uint8_t>(Opcode::kError));
  EXPECT_EQ(server.counters().exchange_unknown.load(), 2u);

  conn.Send(EncodePingFrame(9));
  ASSERT_OK_AND_ASSIGN(Frame pong, conn.ReadFrame());
  EXPECT_EQ(pong.header.opcode, static_cast<uint8_t>(Opcode::kPong));
  server.Stop();
}

TEST_F(NetServerTest, ZeroCreditRejectedLateCreditTolerated) {
  Server server(storage_.get(), Options());
  ASSERT_OK(server.Start());
  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());

  // A zero-credit grant fails decode (credit underflow at the frame
  // boundary) and is answered as an invalid request.
  conn.Send(EncodeExchangeCreditFrame(11, ExchangeCreditMessage{5, 0}));
  ASSERT_OK_AND_ASSIGN(Frame reply, conn.ReadFrame());
  EXPECT_EQ(reply.header.opcode, static_cast<uint8_t>(Opcode::kError));
  ASSERT_OK_AND_ASSIGN(ErrorMessage error, DecodeError(reply.body));
  EXPECT_EQ(error.code, WireError::kInvalidRequest);

  // A well-formed credit for a fragment that no longer exists is the
  // grant-after-teardown race: silently counted, never an error. The pong
  // that follows proves the server processed it and stayed healthy.
  conn.Send(EncodeExchangeCreditFrame(12, ExchangeCreditMessage{5, 1}));
  conn.Send(EncodePingFrame(13));
  ASSERT_OK_AND_ASSIGN(Frame pong, conn.ReadFrame());
  EXPECT_EQ(pong.header.opcode, static_cast<uint8_t>(Opcode::kPong));
  EXPECT_EQ(pong.header.request_id, 13u);
  EXPECT_EQ(server.counters().exchange_unknown.load(), 1u);
  server.Stop();
}

TEST_F(NetServerTest, MalformedFragmentRejectedWithoutDroppingConnection) {
  Server server(storage_.get(), Options());
  ASSERT_OK(server.Start());
  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());

  // A kFragment frame whose body is garbage: decode fails, the server
  // answers kInvalidRequest, framing survives.
  FragmentRequest fragment;
  fragment.text = "restrict(alpha, k1000 < 10)";
  std::string frame = EncodeFragmentFrame(21, fragment);
  frame.resize(frame.size() - 3);  // Truncate the body...
  frame[8] = static_cast<char>(frame.size() - 16);  // ...and re-fit the len.
  frame[9] = frame[10] = frame[11] = 0;
  conn.Send(frame);
  ASSERT_OK_AND_ASSIGN(Frame reply, conn.ReadFrame());
  EXPECT_EQ(reply.header.opcode, static_cast<uint8_t>(Opcode::kError));
  ASSERT_OK_AND_ASSIGN(ErrorMessage error, DecodeError(reply.body));
  EXPECT_EQ(error.code, WireError::kInvalidRequest);

  conn.Send(EncodePingFrame(22));
  ASSERT_OK_AND_ASSIGN(Frame pong, conn.ReadFrame());
  EXPECT_EQ(pong.header.opcode, static_cast<uint8_t>(Opcode::kPong));
  server.Stop();
}

/// Reads the next frame and expects kError/kInvalidRequest for \p request_id.
void ExpectInvalidRequest(RawConn* conn, uint32_t request_id) {
  ASSERT_OK_AND_ASSIGN(Frame reply, conn->ReadFrame());
  ASSERT_EQ(reply.header.opcode, static_cast<uint8_t>(Opcode::kError));
  EXPECT_EQ(reply.header.request_id, request_id);
  ASSERT_OK_AND_ASSIGN(ErrorMessage error, DecodeError(reply.body));
  EXPECT_EQ(error.code, WireError::kInvalidRequest) << error.message;
}

/// Pings and expects the pong to be the very next frame: nothing else was
/// queued on the connection ahead of it.
void ExpectPongNext(RawConn* conn, uint32_t request_id) {
  conn->Send(EncodePingFrame(request_id));
  ASSERT_OK_AND_ASSIGN(Frame pong, conn->ReadFrame());
  EXPECT_EQ(pong.header.opcode, static_cast<uint8_t>(Opcode::kPong));
  EXPECT_EQ(pong.header.request_id, request_id);
}

/// A fragment input of one INT32 column named "v".
FragmentInput IntInput(uint32_t exchange_id, const std::string& relation) {
  return FragmentInput{exchange_id, relation,
                       Schema::CreateOrDie({Column::Int32("v")})};
}

/// One kExchangeData batch of \p values for a one-INT32-column input.
std::string IntBatchFrame(uint32_t request_id, uint32_t exchange_id,
                          const std::vector<int32_t>& values) {
  ExchangeBatch batch;
  batch.exchange_id = exchange_id;
  batch.num_tuples = static_cast<uint32_t>(values.size());
  batch.tuple_width = 4;
  for (int32_t v : values) {
    batch.tuples.append(reinterpret_cast<const char*>(&v), 4);
  }
  return EncodeExchangeDataFrame(request_id, batch);
}

TEST_F(NetServerTest, FragmentOutputReleasesOneBatchPerCredit) {
  // 2 KiB frames cut the output into 1 KiB batches (eleven 100-byte
  // tuples); with one output credit the worker may send one batch, then
  // must wait for each further grant.
  ServerOptions options = Options();
  options.max_frame_bytes = 2048;
  Server server(storage_.get(), options);
  ASSERT_OK(server.Start());
  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());

  const std::string text = "restrict(alpha, k1000 < 100)";
  ASSERT_OK_AND_ASSIGN(auto plan, ParseQuery(text));
  ReferenceExecutor reference(storage_.get());
  ASSERT_OK_AND_ASSIGN(QueryResult expected, reference.Execute(*plan));

  constexpr uint32_t kOut = 5;
  FragmentRequest fragment;
  fragment.text = text;
  fragment.output_exchange_id = kOut;
  fragment.output_mode = ExchangeMode::kGather;
  fragment.output_credits = 1;
  conn.Send(EncodeFragmentFrame(1, fragment));

  uint64_t rows = 0;
  int batches = 0;
  auto expect_batch = [&](const Frame& frame) {
    ASSERT_EQ(frame.header.opcode, static_cast<uint8_t>(Opcode::kExchangeData));
    EXPECT_EQ(frame.header.request_id, 1u);
    ASSERT_OK_AND_ASSIGN(ExchangeBatch batch, DecodeExchangeData(frame.body));
    EXPECT_EQ(batch.exchange_id, kOut);
    EXPECT_EQ(batch.partition_id, 0u);
    rows += batch.num_tuples;
    ++batches;
  };
  ASSERT_OK_AND_ASSIGN(Frame first, conn.ReadFrame());
  expect_batch(first);
  // The credit is spent: nothing follows the first batch.
  ExpectPongNext(&conn, 2);
  EXPECT_GE(server.counters().exchange_credit_stalls.load(), 1u);

  // Each grant releases exactly one batch; kStats follows the last one.
  uint32_t rid = 3;
  for (;;) {
    conn.Send(EncodeExchangeCreditFrame(rid++, ExchangeCreditMessage{kOut, 1}));
    ASSERT_OK_AND_ASSIGN(Frame data, conn.ReadFrame());
    expect_batch(data);
    conn.Send(EncodePingFrame(rid));
    ASSERT_OK_AND_ASSIGN(Frame next, conn.ReadFrame());
    if (next.header.opcode == static_cast<uint8_t>(Opcode::kPong)) {
      EXPECT_EQ(next.header.request_id, rid++);
      ASSERT_LT(batches, 100);
      continue;
    }
    ASSERT_EQ(next.header.opcode, static_cast<uint8_t>(Opcode::kStats));
    EXPECT_EQ(next.header.request_id, 1u);
    ASSERT_OK_AND_ASSIGN(StatsMessage stats, DecodeStats(next.body));
    EXPECT_EQ(stats.total_rows, expected.num_tuples());
    ASSERT_OK_AND_ASSIGN(Frame pong, conn.ReadFrame());
    EXPECT_EQ(pong.header.opcode, static_cast<uint8_t>(Opcode::kPong));
    break;
  }
  EXPECT_GE(batches, 3);
  EXPECT_EQ(rows, expected.num_tuples());
  EXPECT_EQ(server.counters().exchange_batches_out.load(),
            static_cast<uint64_t>(batches));
  server.Stop();
}

TEST_F(NetServerTest, DisconnectBeforeEofDropsTheTempRelation) {
  Server server(storage_.get(), Options());
  ASSERT_OK(server.Start());
  FragmentRequest fragment;
  fragment.text = "__exq31";
  fragment.output_exchange_id = 30;
  fragment.inputs.push_back(IntInput(31, "__exq31"));
  {
    RawConn conn(server.port());
    ASSERT_TRUE(conn.connected());
    conn.Send(EncodeFragmentFrame(1, fragment));
    conn.Send(IntBatchFrame(2, 31, {1, 2, 3}));
    // The credit back proves the batch landed in the temp relation.
    ASSERT_OK_AND_ASSIGN(Frame credit, conn.ReadFrame());
    ASSERT_EQ(credit.header.opcode,
              static_cast<uint8_t>(Opcode::kExchangeCredit));
  }  // Gone before the EOF.
  for (int i = 0; i < 200 && server.counters().disconnects.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.counters().disconnects.load(), 1u);

  // The temp relation went with the connection: a new coordinator may open
  // an input of the same name, and the fragment sees only its own rows.
  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());
  conn.Send(EncodeFragmentFrame(1, fragment));
  conn.Send(IntBatchFrame(2, 31, {7, 8}));
  conn.Send(EncodeExchangeEofFrame(3, ExchangeEofMessage{31}));
  ASSERT_OK_AND_ASSIGN(Frame credit, conn.ReadFrame());
  EXPECT_EQ(credit.header.opcode,
            static_cast<uint8_t>(Opcode::kExchangeCredit));
  ASSERT_OK_AND_ASSIGN(Frame data, conn.ReadFrame());
  ASSERT_EQ(data.header.opcode, static_cast<uint8_t>(Opcode::kExchangeData));
  ASSERT_OK_AND_ASSIGN(ExchangeBatch batch, DecodeExchangeData(data.body));
  EXPECT_EQ(batch.num_tuples, 2u);
  ASSERT_OK_AND_ASSIGN(Frame stats, conn.ReadFrame());
  EXPECT_EQ(stats.header.opcode, static_cast<uint8_t>(Opcode::kStats));
  EXPECT_EQ(server.counters().fragment_errors.load(), 0u);

  // The server keeps serving ordinary queries.
  ASSERT_OK_AND_ASSIGN(Client client,
                       Client::Connect("127.0.0.1", server.port()));
  ASSERT_OK_AND_ASSIGN(RemoteResult ok,
                       client.Execute("restrict(alpha, k1000 < 10)"));
  (void)ok;
  server.Stop();
}

TEST_F(NetServerTest, ExchangeMisuseAnsweredWithoutDroppingConnection) {
  Server server(storage_.get(), Options());
  ASSERT_OK(server.Start());
  RawConn conn(server.port());
  ASSERT_TRUE(conn.connected());

  // Two inputs, so the fragment never runs while the first input is
  // misused.
  FragmentRequest fragment;
  fragment.text = "union(__exq41, __exq42)";
  fragment.output_exchange_id = 40;
  fragment.inputs.push_back(IntInput(41, "__exq41"));
  fragment.inputs.push_back(IntInput(42, "__exq42"));
  conn.Send(EncodeFragmentFrame(1, fragment));
  conn.Send(EncodeExchangeEofFrame(2, ExchangeEofMessage{41}));
  ExpectPongNext(&conn, 3);

  // Data after EOF.
  conn.Send(IntBatchFrame(4, 41, {1}));
  ExpectInvalidRequest(&conn, 4);
  ExpectPongNext(&conn, 5);

  // A duplicate EOF.
  conn.Send(EncodeExchangeEofFrame(6, ExchangeEofMessage{41}));
  ExpectInvalidRequest(&conn, 6);
  ExpectPongNext(&conn, 7);

  // A batch whose tuple width is not the input schema's.
  ExchangeBatch wide;
  wide.exchange_id = 42;
  wide.num_tuples = 1;
  wide.tuple_width = 8;
  wide.tuples = std::string(8, 'x');
  conn.Send(EncodeExchangeDataFrame(8, wide));
  ExpectInvalidRequest(&conn, 8);
  ExpectPongNext(&conn, 9);

  // A second fragment reusing the open output exchange id.
  FragmentRequest same_output = fragment;
  same_output.inputs.clear();
  conn.Send(EncodeFragmentFrame(10, same_output));
  ExpectInvalidRequest(&conn, 10);
  ExpectPongNext(&conn, 11);

  // A second fragment reusing an open input exchange id.
  FragmentRequest same_input;
  same_input.text = "__exq99";
  same_input.output_exchange_id = 43;
  same_input.inputs.push_back(IntInput(42, "__exq99"));
  conn.Send(EncodeFragmentFrame(12, same_input));
  ExpectInvalidRequest(&conn, 12);
  ExpectPongNext(&conn, 13);

  // The first fragment is intact: its second input still completes it.
  conn.Send(IntBatchFrame(14, 42, {5}));
  conn.Send(EncodeExchangeEofFrame(15, ExchangeEofMessage{42}));
  ASSERT_OK_AND_ASSIGN(Frame credit, conn.ReadFrame());
  EXPECT_EQ(credit.header.opcode,
            static_cast<uint8_t>(Opcode::kExchangeCredit));
  ASSERT_OK_AND_ASSIGN(Frame data, conn.ReadFrame());
  ASSERT_EQ(data.header.opcode, static_cast<uint8_t>(Opcode::kExchangeData));
  ASSERT_OK_AND_ASSIGN(ExchangeBatch batch, DecodeExchangeData(data.body));
  EXPECT_EQ(batch.num_tuples, 1u);
  ASSERT_OK_AND_ASSIGN(Frame stats, conn.ReadFrame());
  EXPECT_EQ(stats.header.opcode, static_cast<uint8_t>(Opcode::kStats));
  EXPECT_EQ(stats.header.request_id, 1u);
  server.Stop();
}

TEST_F(NetServerTest, StartTwiceFailsCleanly) {
  Server server(storage_.get(), Options());
  ASSERT_OK(server.Start());
  EXPECT_TRUE(server.Start().IsFailedPrecondition());
  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace dfdb
