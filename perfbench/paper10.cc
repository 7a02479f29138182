/// \file paper10.cc
/// \brief paper10_engine: the paper's ten-query benchmark as one batch, at
/// page and at relation granularity, on the resident threads engine; after
/// the timed phase the same batch runs through the ring-machine simulator
/// in the FIG-3.1 configurations.

#include <cstdlib>
#include <map>

#include "common/string_util.h"
#include "engine/reference.h"
#include "engine/scheduler.h"
#include "machine/simulator.h"
#include "ra/raql.h"
#include "workload.h"
#include "workload/paper_benchmark.h"

namespace perfbench {
namespace {

std::vector<const dfdb::PlanNode*> Pointers(
    const std::vector<dfdb::Query>& queries) {
  std::vector<const dfdb::PlanNode*> out;
  for (const dfdb::Query& q : queries) out.push_back(q.root.get());
  return out;
}

/// Checks each of \p got against \p want: empty when all match,
/// otherwise the first mismatch.
std::string CheckBatch(const std::vector<Answer>& want,
                       const std::vector<dfdb::QueryResult>& got,
                       const std::string& what) {
  if (got.size() != want.size()) {
    return dfdb::StrFormat("%s: %zu results for %zu queries", what.c_str(),
                           got.size(), want.size());
  }
  for (size_t q = 0; q < want.size(); ++q) {
    std::string why;
    if (!CheckAnswer(want[q], got[q], &why)) {
      return dfdb::StrFormat("%s Q%zu: wrong answer: %s", what.c_str(), q + 1,
                             why.c_str());
    }
  }
  return "";
}

std::vector<std::string> RaqlTexts(const std::vector<dfdb::Query>& queries) {
  std::vector<std::string> texts;
  for (const dfdb::Query& q : queries) {
    auto text = dfdb::PlanToRaql(*q.root);
    if (text.ok()) texts.push_back(*text);
  }
  return texts;
}

// --- The simulator, after the timed phase --------------------------------------

/// The FIG-3.1 configurations the simulator runs after the timed phase:
/// page and relation granularity at 4, 16 and 50 IPs, 8 ICs, 16 KB pages,
/// on the same scale-1 paper database, so every makespan can be checked
/// against the committed figure.
constexpr int kIps[] = {4, 16, 50};
constexpr int kMachineCycles = 2;

struct MachineConfigKey {
  dfdb::Granularity granularity;
  int ips;
};

std::string ConfigName(const MachineConfigKey& k) {
  return dfdb::StrFormat(
      "%s:%d", k.granularity == dfdb::Granularity::kPage ? "page" : "relation",
      k.ips);
}

/// Parses "page:16:<ns>,relation:4:<ns>,..." into config name -> makespan.
std::map<std::string, int64_t> ParseMakespans(const std::string& text) {
  std::map<std::string, int64_t> parsed;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find(',', start);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(start, end - start);
    const size_t colon = item.rfind(':');
    if (colon != std::string::npos) {
      parsed[item.substr(0, colon)] =
          std::strtoll(item.c_str() + colon + 1, nullptr, 10);
    }
    start = end + 1;
  }
  return parsed;
}

/// Runs kMachineCycles cycles of the six configurations in seeded order
/// through MachineSimulator::Run, checks each makespan against FIG-3.1 and
/// each query's rows against \p expected, and reports the simulator's host
/// cost and counters.
void RunMachine(const RunContext& ctx, dfdb::StorageEngine* storage,
                const std::vector<dfdb::Query>& queries,
                const std::vector<Answer>& expected, Report* report) {
  std::vector<MachineConfigKey> configs;
  for (dfdb::Granularity g :
       {dfdb::Granularity::kPage, dfdb::Granularity::kRelation}) {
    for (int ips : kIps) configs.push_back({g, ips});
  }
  const std::map<std::string, int64_t> fig31 = ParseMakespans(ctx.fig31);
  std::vector<double> run_ms;
  double run_s = 0;
  uint64_t events = 0, packets = 0, ring_bytes = 0;
  for (int cycle = 0; cycle < kMachineCycles; ++cycle) {
    for (int c : SeededOrder(static_cast<int>(configs.size()),
                             ctx.seed * 7919 + static_cast<uint64_t>(cycle))) {
      const MachineConfigKey& k = configs[static_cast<size_t>(c)];
      const std::string name = ConfigName(k);
      auto want = fig31.find(name);
      if (want == fig31.end()) {
        report->failures.push_back("no committed FIG-3.1 makespan for " +
                                   name);
        return;
      }
      dfdb::MachineOptions options;
      options.granularity = k.granularity;
      options.config.num_instruction_processors = k.ips;
      options.config.num_instruction_controllers = 8;
      options.config.page_bytes = 16384;
      const auto t0 = Clock::now();
      dfdb::MachineSimulator sim(storage, options);
      auto result = sim.Run(Pointers(queries));
      const auto t1 = Clock::now();
      if (!result.ok()) {
        report->failures.push_back(name + ": " + result.status().ToString());
        return;
      }
      if (result->makespan.nanos() != want->second) {
        report->failures.push_back(dfdb::StrFormat(
            "%s: makespan %lld ns, FIG-3.1 has %lld ns", name.c_str(),
            static_cast<long long>(result->makespan.nanos()),
            static_cast<long long>(want->second)));
        return;
      }
      const std::string wrong = CheckBatch(expected, result->results, name);
      if (!wrong.empty()) {
        report->failures.push_back(wrong);
        return;
      }
      run_ms.push_back(MsBetween(t0, t1));
      run_s += run_ms.back() / 1e3;
      events += result->events;
      packets += result->instruction_packets;
      ring_bytes += result->bytes.outer_ring;
      if (ctx.spans->enabled()) {
        ctx.spans->Add("machine.run", NsOf(t0), NsOf(t1), -1, 0);
      }
    }
  }
  const double n = static_cast<double>(run_ms.size());
  auto& l = report->layer;
  l["machine.run_ms_p50"] = Summarize(run_ms).p50;
  l["machine.events_per_s"] = static_cast<double>(events) / run_s;
  l["machine.events_per_batch"] = static_cast<double>(events) / n;
  l["machine.instruction_packets_per_batch"] = static_cast<double>(packets) / n;
  l["machine.outer_ring_bytes_per_batch"] = static_cast<double>(ring_bytes) / n;
  report->notes.push_back("machine.run_ms " + Summarize(run_ms).ToString());
}

// --- paper10_engine ------------------------------------------------------------

/// The ten queries, planned once, submitted as one batch to a resident
/// Scheduler in a seeded order. Each cycle runs one batch on a
/// page-granularity scheduler (primary) and one on a relation-granularity
/// scheduler (secondary), in seeded order; only one scheduler is busy at a
/// time.
class Paper10Engine : public Workload {
 public:
  explicit Paper10Engine(const RunContext& ctx) : ctx_(ctx) {}

  const char* primary_class() const override { return "page_batch"; }
  const char* secondary_class() const override { return "relation_batch"; }

  /// The ten queries' ReferenceExecutor answers, from a database of its
  /// own.
  dfdb::Status Prepare() override {
    dfdb::StorageEngine storage(16384);
    DFDB_RETURN_IF_ERROR(
        dfdb::BuildPaperDatabase(&storage, 1.0, kPaperDataSeed).status());
    dfdb::ReferenceExecutor reference(&storage);
    for (const dfdb::Query& q : dfdb::MakePaperBenchmarkQueries()) {
      DFDB_ASSIGN_OR_RETURN(dfdb::QueryResult want, reference.Execute(*q.root));
      expected_.push_back(AnswerOf(want));
    }
    return dfdb::Status::OK();
  }

  dfdb::Status Setup() override {
    inst_.reset();
    inst_ = std::make_unique<Instance>();
    Instance& in = *inst_;
    const auto t0 = Clock::now();
    DFDB_RETURN_IF_ERROR(
        dfdb::BuildPaperDatabase(&in.storage, 1.0, kPaperDataSeed).status());
    workload_build_s_ = MsBetween(t0, Clock::now()) / 1e3;
    in.queries = dfdb::MakePaperBenchmarkQueries();
    dfdb::Optimizer optimizer(&in.storage.catalog());
    for (const dfdb::Query& q : in.queries) {
      dfdb::OptimizerReport one;
      DFDB_ASSIGN_OR_RETURN(dfdb::PlanNodePtr plan,
                            optimizer.Optimize(*q.root, &one));
      in.marks.scans_pushdown += one.scans_pushdown;
      in.marks.scans_gridfile += one.scans_gridfile;
      in.marks.edges_fused += one.edges_fused;
      in.plans.push_back(std::move(plan));
    }
    for (dfdb::Granularity g :
         {dfdb::Granularity::kPage, dfdb::Granularity::kRelation}) {
      dfdb::SchedulerOptions options;
      options.exec.num_processors = kWorkers;
      options.exec.granularity = g;
      in.schedulers.push_back(
          std::make_unique<dfdb::Scheduler>(&in.storage, options));
    }
    OpLog warm;
    for (int s = 0; s < 2; ++s) Batch(s, 0, &warm);
    if (warm.failed > 0) {
      return dfdb::Status::Internal("warm-up failed: " + warm.errors.front());
    }
    return dfdb::Status::OK();
  }

  void Run(Clock::time_point deadline, OpLog* log) override {
    before_ = Stats();
    uint64_t op = 1;
    for (uint64_t cycle = 0; Clock::now() < deadline; ++cycle) {
      for (int s : SeededOrder(2, ctx_.seed * 7919 + cycle)) Batch(s, op++, log);
    }
    after_ = Stats();
  }

  void Finish(const OpLog& log, Report* report) override {
    auto& l = report->layer;
    l["engine.submit_us_p50"] = Summarize(submit_us_).p50;
    l["engine.query_ms_p50"] = Summarize(query_ms_).p50;
    l["workload.build_s"] = workload_build_s_;
    ReportEngineDelta(before_, after_, log.attempted, 0, report);
    ReportPlanMarks(inst_->marks, report);
    RunMachine(ctx_, &inst_->storage, inst_->queries, expected_, report);
    if (ctx_.spans->enabled()) {
      TimeRaLayer(RaqlTexts(inst_->queries), inst_->storage.catalog(), report);
    }
    for (size_t q = 0; q < per_query_ms_.size(); ++q) {
      report->notes.push_back(dfdb::StrFormat(
          "engine.query_ms Q%zu %s", q + 1,
          Summarize(per_query_ms_[q]).ToString().c_str()));
    }
  }

 private:
  struct Instance {
    dfdb::StorageEngine storage{16384};
    std::vector<dfdb::Query> queries;
    std::vector<dfdb::PlanNodePtr> plans;
    dfdb::OptimizerReport marks;
    /// [0] page granularity, [1] relation granularity.
    std::vector<std::unique_ptr<dfdb::Scheduler>> schedulers;
  };

  dfdb::ExecStats Stats() const {
    return AddStats(inst_->schedulers[0]->AggregateStats(),
                    inst_->schedulers[1]->AggregateStats());
  }

  /// Submits the ten plans to scheduler \p s in a seeded order and waits
  /// for all of them.
  void Batch(int s, uint64_t op, OpLog* log) {
    Instance& in = *inst_;
    dfdb::Scheduler& scheduler = *in.schedulers[static_cast<size_t>(s)];
    const size_t n = in.plans.size();
    const std::vector<int> order =
        SeededOrder(static_cast<int>(n), ctx_.seed * 104729 + op);
    std::vector<dfdb::QueryHandle> handles(n);
    std::vector<Clock::time_point> submitted(n), returned(n), waited(n);
    ++log->attempted;
    const auto t0 = Clock::now();
    for (size_t k = 0; k < n; ++k) {
      const size_t q = static_cast<size_t>(order[k]);
      submitted[q] = Clock::now();
      auto handle = scheduler.Submit(*in.plans[q]);
      returned[q] = Clock::now();
      if (!handle.ok()) {
        log->Error("submit: " + handle.status().ToString());
        for (size_t w = 0; w < k; ++w) {
          (void)handles[static_cast<size_t>(order[w])].Wait();
        }
        return;
      }
      handles[q] = *handle;
    }
    std::vector<dfdb::QueryResult> results(n);
    dfdb::Status failed = dfdb::Status::OK();
    for (size_t k = 0; k < n; ++k) {
      const size_t q = static_cast<size_t>(order[k]);
      auto result = handles[q].Wait();
      waited[q] = Clock::now();
      if (!result.ok()) {
        if (failed.ok()) failed = result.status();
        continue;
      }
      results[q] = std::move(*result);
    }
    const auto t1 = Clock::now();
    if (!failed.ok()) {
      log->Error("query: " + failed.ToString());
      return;
    }
    const std::string wrong =
        CheckBatch(expected_, results, s == 0 ? "page" : "relation");
    if (!wrong.empty()) {
      log->Error(wrong);
      return;
    }
    log->Record(s == 0, MsBetween(t0, t1), t1);
    if (op == 0) return;  // Warm-up: answers checked, nothing recorded.
    per_query_ms_.resize(n);
    for (size_t q = 0; q < n; ++q) {
      submit_us_.push_back(MsBetween(submitted[q], returned[q]) * 1e3);
      query_ms_.push_back(MsBetween(returned[q], waited[q]));
      per_query_ms_[q].push_back(MsBetween(submitted[q], waited[q]));
    }
    if (ctx_.spans->enabled()) {
      const int64_t id = ctx_.spans->Add(
          s == 0 ? "bench.page_batch" : "bench.relation_batch", NsOf(t0),
          NsOf(t1), -1, op);
      for (size_t q = 0; q < n; ++q) {
        ctx_.spans->Add("engine.submit", NsOf(submitted[q]), NsOf(returned[q]), id,
                        op);
        ctx_.spans->Add("engine.query", NsOf(returned[q]), NsOf(waited[q]), id,
                        op);
      }
    }
  }

  const RunContext ctx_;
  std::vector<Answer> expected_;  ///< One per query, in query order.
  std::unique_ptr<Instance> inst_;
  double workload_build_s_ = 0;
  dfdb::ExecStats before_, after_;
  std::vector<double> submit_us_, query_ms_;
  std::vector<std::vector<double>> per_query_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakePaper10Engine(const RunContext& ctx) {
  return std::make_unique<Paper10Engine>(ctx);
}

}  // namespace perfbench
