/// \file wire_mix.cc
/// \brief wire_mix: RAQL text over loopback TCP to an in-process
/// net::Server, two closed-loop clients, three reads to one write.

#include <thread>

#include "common/string_util.h"
#include "engine/run.h"
#include "net/client.h"
#include "net/server.h"
#include "workload.h"
#include "workload/paper_benchmark.h"

namespace perfbench {

const char kWireAppend[] = "append(restrict(r10, k1000 >= 950), r14)";
const char kWireDelete[] = "delete(r14, k1000 >= 950)";

dfdb::StatusOr<uint64_t> RowCount(dfdb::StorageEngine* storage,
                                  const std::string& relation) {
  DFDB_ASSIGN_OR_RETURN(dfdb::PlanNodePtr plan,
                        PlanText(relation, storage->catalog(), nullptr));
  dfdb::ExecOptions options;
  options.num_processors = 1;
  DFDB_ASSIGN_OR_RETURN(dfdb::QueryResult result,
                        dfdb::RunQuery(storage, *plan, options));
  return result.num_tuples();
}

std::string CheckRowCountUnchanged(const std::string& relation, uint64_t start,
                                   uint64_t end) {
  if (start == end) return "";
  return dfdb::StrFormat("%s ended at %llu rows, started at %llu: the write "
                         "stream is not stationary",
                         relation.c_str(), static_cast<unsigned long long>(end),
                         static_cast<unsigned long long>(start));
}

namespace {

constexpr double kScale = 0.25;
constexpr int kClients = 2;

/// Five reader shapes (an odd count, so the read median sits inside one
/// shape rather than on the edge between two).
const char* const kReads[] = {
    "restrict(r01, k1000 < 100)",
    "project(r05, [k100], dedup)",
    "join(restrict(r01, k1000 < 40), r06, k100 = right.k100)",
    "agg(r02, [k10], [count() as n, sum(val) as s])",
    "restrict(r14, k1000 < 900)",
};
constexpr int kNumReads = sizeof(kReads) / sizeof(kReads[0]);

/// One client round: R R R append R R R delete. Every round leaves r14 at
/// its starting row count, so the delete's copy-on-write cost does not
/// grow with run length; runs stop only at round boundaries.
constexpr int kRoundOps = 8;

/// Per-client samples beyond the OpLog.
struct ClientLog {
  OpLog ops;
  std::vector<double> server_ms;   ///< Reads: RemoteResult::server_seconds.
  std::vector<double> outside_ms;  ///< Reads: Execute span minus server time.
  std::vector<double> writer_queue_ms;
};

class WireMix : public Workload {
 public:
  explicit WireMix(const RunContext& ctx) : ctx_(ctx) {}

  const char* primary_class() const override { return "read"; }
  const char* secondary_class() const override { return "write"; }

  dfdb::Status Setup() override {
    inst_.reset();
    inst_ = std::make_unique<Instance>();
    Instance& in = *inst_;
    const auto t0 = Clock::now();
    DFDB_RETURN_IF_ERROR(
        dfdb::BuildPaperDatabase(&in.storage, kScale, kPaperDataSeed).status());
    workload_build_s_ = MsBetween(t0, Clock::now()) / 1e3;
    // Start from the state every round returns to: no k1000 >= 950 rows.
    DFDB_ASSIGN_OR_RETURN(dfdb::PlanNodePtr del,
                          PlanText(kWireDelete, in.storage.catalog(), &in.marks));
    dfdb::ExecOptions options;
    options.num_processors = kWorkers;
    DFDB_RETURN_IF_ERROR(dfdb::RunQuery(&in.storage, *del, options).status());
    // Planned here only for its optimizer marks; the server plans the text.
    DFDB_RETURN_IF_ERROR(
        PlanText(kWireAppend, in.storage.catalog(), &in.marks).status());
    DFDB_ASSIGN_OR_RETURN(in.r14_rows, RowCount(&in.storage, "r14"));
    for (const char* text : kReads) {
      DFDB_ASSIGN_OR_RETURN(dfdb::PlanNodePtr plan,
                            PlanText(text, in.storage.catalog(), &in.marks));
      DFDB_ASSIGN_OR_RETURN(dfdb::QueryResult result,
                            dfdb::RunQuery(&in.storage, *plan, options));
      in.expected.push_back(AnswerOf(result));
    }

    dfdb::net::ServerOptions server_options;
    server_options.scheduler.exec.num_processors = kWorkers;
    in.server =
        std::make_unique<dfdb::net::Server>(&in.storage, server_options);
    DFDB_RETURN_IF_ERROR(in.server->Start());
    for (int c = 0; c < kClients; ++c) {
      DFDB_ASSIGN_OR_RETURN(
          dfdb::net::Client client,
          dfdb::net::Client::Connect("127.0.0.1", in.server->port()));
      in.clients.push_back(std::move(client));
    }
    // Warm-up: one round per client, answers checked like timed ones.
    for (int c = 0; c < kClients; ++c) {
      ClientLog warm;
      RunRound(c, 0, &warm);
      if (warm.ops.failed > 0) {
        return dfdb::Status::Internal("warm-up failed: " +
                                      warm.ops.errors.front());
      }
    }
    return dfdb::Status::OK();
  }

  void Run(Clock::time_point deadline, OpLog* log) override {
    Instance& in = *inst_;
    before_ = in.server->AggregateStats();
    const dfdb::net::ServerCounters& counters = in.server->counters();
    bytes_in0_ = counters.bytes_in.load();
    bytes_out0_ = counters.bytes_out.load();
    requests0_ = counters.requests.load();
    pages_copied0_ = in.storage.mvcc_stats().pages_copied;

    std::vector<ClientLog> logs(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (uint64_t round = 1;; ++round) {
          RunRound(c, round, &logs[static_cast<size_t>(c)]);
          if (!in.clients[static_cast<size_t>(c)].connected()) break;
          if (Clock::now() >= deadline) break;
        }
      });
    }
    for (auto& t : threads) t.join();

    after_ = in.server->AggregateStats();
    bytes_in1_ = counters.bytes_in.load();
    bytes_out1_ = counters.bytes_out.load();
    requests1_ = counters.requests.load();
    pages_copied1_ = in.storage.mvcc_stats().pages_copied;
    for (const ClientLog& l : logs) {
      log->Merge(l.ops);
      server_ms_.insert(server_ms_.end(), l.server_ms.begin(),
                        l.server_ms.end());
      outside_ms_.insert(outside_ms_.end(), l.outside_ms.begin(),
                         l.outside_ms.end());
      writer_queue_ms_.insert(writer_queue_ms_.end(),
                              l.writer_queue_ms.begin(),
                              l.writer_queue_ms.end());
    }
  }

  void Finish(const OpLog& log, Report* report) override {
    Instance& in = *inst_;
    auto rows = RowCount(&in.storage, "r14");
    if (!rows.ok()) {
      report->failures.push_back("r14 count: " + rows.status().ToString());
    } else {
      const std::string why =
          CheckRowCountUnchanged("r14", in.r14_rows, *rows);
      if (!why.empty()) report->failures.push_back(why);
    }
    const uint64_t ops = log.attempted;
    const double requests = static_cast<double>(requests1_ - requests0_);
    auto& l = report->layer;
    l["net.outside_engine_ms_p50"] = Summarize(outside_ms_).p50;
    l["engine.server_ms_p50"] = Summarize(server_ms_).p50;
    l["net.bytes_in_per_op"] =
        static_cast<double>(bytes_in1_ - bytes_in0_) / requests;
    l["net.bytes_out_per_op"] =
        static_cast<double>(bytes_out1_ - bytes_out0_) / requests;
    const LatencySummary queue = Summarize(writer_queue_ms_);
    double queue_sum = 0;
    for (double q : writer_queue_ms_) queue_sum += q;
    l["engine.writer_queue_wait_ms_mean"] =
        writer_queue_ms_.empty()
            ? 0
            : queue_sum / static_cast<double>(writer_queue_ms_.size());
    l["storage.mvcc_pages_copied_per_write"] =
        static_cast<double>(pages_copied1_ - pages_copied0_) /
        static_cast<double>(std::max<size_t>(log.secondary_ms.size(), 1));
    l["workload.build_s"] = workload_build_s_;
    ReportEngineDelta(before_, after_, ops, 0, report);
    ReportPlanMarks(in.marks, report);
    if (ctx_.spans->enabled()) {
      std::vector<std::string> texts(std::begin(kReads), std::end(kReads));
      texts.push_back(kWireAppend);
      texts.push_back(kWireDelete);
      TimeRaLayer(texts, in.storage.catalog(), report);
    }
    report->notes.push_back("engine.server_ms " + Summarize(server_ms_).ToString());
    report->notes.push_back("net.outside_engine_ms " +
                            Summarize(outside_ms_).ToString());
    report->notes.push_back("writer_queue_wait_ms " + queue.ToString());
  }

 private:
  struct Instance {
    dfdb::StorageEngine storage{16384};
    dfdb::OptimizerReport marks;
    std::vector<Answer> expected;  ///< Per entry of kReads.
    uint64_t r14_rows = 0;
    std::unique_ptr<dfdb::net::Server> server;
    std::vector<dfdb::net::Client> clients;
  };

  /// One round on client \p c; round r starts the reader cursor at a
  /// client- and seed-dependent shape so clients do not move in lockstep.
  void RunRound(int c, uint64_t round, ClientLog* out) {
    Instance& in = *inst_;
    dfdb::net::Client& client = in.clients[static_cast<size_t>(c)];
    const uint64_t first_read =
        (ctx_.seed + static_cast<uint64_t>(c) * 2 + round * 6) % kNumReads;
    int reads = 0;
    for (int i = 0; i < kRoundOps; ++i) {
      const bool write = i % 4 == 3;
      const int read_index =
          static_cast<int>((first_read + static_cast<uint64_t>(reads)) %
                           kNumReads);
      const char* text = !write ? kReads[read_index]
                                : (i == 3 ? kWireAppend : kWireDelete);
      if (!write) ++reads;
      const uint64_t op =
          (round * kClients + static_cast<uint64_t>(c)) * kRoundOps +
          static_cast<uint64_t>(i);
      ++out->ops.attempted;
      const auto t0 = Clock::now();
      auto result = client.Execute(text);
      const auto t1 = Clock::now();
      if (!result.ok()) {
        out->ops.Error(std::string(text) + ": " + result.status().ToString());
        if (!client.connected()) return;
        continue;
      }
      const double ms = MsBetween(t0, t1);
      const double server_ms = result->server_seconds * 1e3;
      if (ctx_.spans->enabled()) {
        const int64_t id =
            ctx_.spans->Add(write ? "net.write" : "net.read", NsOf(t0), NsOf(t1),
                            -1, op);
        ctx_.spans->Add("engine.server",
                        NsOf(t1) - static_cast<int64_t>(server_ms * 1e6),
                        NsOf(t1), id, op);
      }
      if (write) {
        out->ops.Record(false, ms, t1);
        auto it = result->counters.find("engine.sched.queue_wait_ns");
        out->writer_queue_ms.push_back(
            it == result->counters.end() ? 0 : static_cast<double>(it->second) / 1e6);
        continue;
      }
      const Answer got(result->schema, result->tuples.data(),
                       result->num_tuples);
      std::string why;
      if (!in.expected[static_cast<size_t>(read_index)].Matches(got, &why)) {
        out->ops.Error(std::string(text) + ": wrong answer: " + why);
        continue;
      }
      out->ops.Record(true, ms, t1);
      out->server_ms.push_back(server_ms);
      out->outside_ms.push_back(ms - server_ms);
    }
  }

  const RunContext ctx_;
  std::unique_ptr<Instance> inst_;
  double workload_build_s_ = 0;
  dfdb::ExecStats before_, after_;
  uint64_t bytes_in0_ = 0, bytes_in1_ = 0, bytes_out0_ = 0, bytes_out1_ = 0;
  uint64_t requests0_ = 0, requests1_ = 0;
  uint64_t pages_copied0_ = 0, pages_copied1_ = 0;
  std::vector<double> server_ms_, outside_ms_, writer_queue_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeWireMix(const RunContext& ctx) {
  return std::make_unique<WireMix>(ctx);
}

}  // namespace perfbench
