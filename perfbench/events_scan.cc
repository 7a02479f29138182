/// \file events_scan.cc
/// \brief events_scan: rounds of selective probes and full aggregating scans
/// over a sessionized Zipfian event relation about six times the disk-cache
/// level.

#include <algorithm>

#include "common/random.h"
#include "common/string_util.h"
#include "engine/run.h"
#include "engine/scheduler.h"
#include "index/index_manager.h"
#include "workload.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

constexpr uint64_t kEvents = 500000;  // 100-byte tuples: 50 MB.
constexpr uint64_t kWindow = kEvents / 100;
constexpr int kTsProbes = 8;
constexpr int kUserProbes = 8;
/// Probes per round, by kind; each cycle is one round and one full scan.
constexpr int kTsPerRound = 5;
constexpr int kUserPerRound = 3;
constexpr int kProbesPerRound = kTsPerRound + kUserPerRound;
/// Engine workers. Each query here is one pipeline, so a second worker
/// mostly adds hand-offs between threads: on a 4-core Xeon VM it made the
/// scan slower (30 vs 24 ms) and, with four other busy threads, 58% slower
/// still, while the scan on one worker did not slow down at all.
constexpr int kEventsWorkers = 1;
const char kScanText[] = "agg(events, [device], [count() as n, sum(val) as s])";

class EventsScan : public Workload {
 public:
  explicit EventsScan(const RunContext& ctx) : ctx_(ctx) {}

  const char* primary_class() const override { return "probe_round"; }
  const char* secondary_class() const override { return "scan"; }

  /// The query texts and their reference answers, from a relation of its
  /// own: every page read, nothing filtered in storage.
  dfdb::Status Prepare() override {
    dfdb::StorageEngine storage(16384);
    DFDB_RETURN_IF_ERROR(BuildEvents(&storage).status());
    DFDB_ASSIGN_OR_RETURN(texts_, ProbeTexts(&storage));
    texts_.push_back(kScanText);
    dfdb::ExecOptions reference;
    reference.num_processors = kEventsWorkers;
    reference.index = dfdb::IndexPolicy::kForceFullScan;
    reference.pushdown = dfdb::PushdownPolicy::kForceOff;
    for (const std::string& text : texts_) {
      DFDB_ASSIGN_OR_RETURN(dfdb::PlanNodePtr plan,
                            PlanText(text, storage.catalog(), nullptr));
      DFDB_ASSIGN_OR_RETURN(dfdb::QueryResult want,
                            dfdb::RunQuery(&storage, *plan, reference));
      expected_.push_back(AnswerOf(want));
    }
    return dfdb::Status::OK();
  }

  dfdb::Status Setup() override {
    inst_.reset();
    inst_ = std::make_unique<Instance>();
    Instance& in = *inst_;
    const auto t0 = Clock::now();
    DFDB_ASSIGN_OR_RETURN(in.pages, BuildEvents(&in.storage));
    const auto t1 = Clock::now();
    DFDB_RETURN_IF_ERROR(dfdb::GetIndexManager(&in.storage)->CreateIndex(
        "events_user_device", "events", {"user", "device"}));
    const auto t2 = Clock::now();
    workload_build_s_ = MsBetween(t0, t1) / 1e3;
    index_build_s_ = MsBetween(t1, t2) / 1e3;
    for (const std::string& text : texts_) {
      DFDB_ASSIGN_OR_RETURN(dfdb::PlanNodePtr plan,
                            PlanText(text, in.storage.catalog(), &in.marks));
      in.plans.push_back(std::move(plan));
    }

    dfdb::SchedulerOptions options;
    options.exec.num_processors = kEventsWorkers;
    in.scheduler = std::make_unique<dfdb::Scheduler>(&in.storage, options);
    OpLog warm;
    Cycle(0, &warm);
    if (warm.failed > 0) {
      return dfdb::Status::Internal("warm-up failed: " + warm.errors.front());
    }
    return dfdb::Status::OK();
  }

  void Run(Clock::time_point deadline, OpLog* log) override {
    before_ = inst_->scheduler->AggregateStats();
    for (uint64_t cycle = 1; Clock::now() < deadline; ++cycle) {
      Cycle(cycle, log);
    }
    after_ = inst_->scheduler->AggregateStats();
  }

  void Finish(const OpLog& log, Report* report) override {
    auto& l = report->layer;
    l["engine.submit_us_p50"] = Summarize(submit_us_).p50;
    l["engine.query_ms_p50"] = Summarize(query_ms_).p50;
    l["workload.build_s"] = workload_build_s_;
    l["index.build_s"] = index_build_s_;
    // Ops alternate between a round and a scan, so an op reads on average
    // (kProbesPerRound + 1) / 2 relations' worth of pages unpruned.
    ReportEngineDelta(before_, after_, log.attempted,
                      inst_->pages * (kProbesPerRound + 1) / 2, report);
    ReportPlanMarks(inst_->marks, report);
    if (ctx_.spans->enabled()) {
      TimeRaLayer(texts_, inst_->storage.catalog(), report);
    }
    report->notes.push_back("ts_probe_query_ms " +
                            Summarize(ts_ms_).ToString());
    report->notes.push_back("user_probe_query_ms " +
                            Summarize(user_ms_).ToString());
  }

 private:
  struct Instance {
    dfdb::StorageEngine storage{16384};
    uint64_t pages = 0;
    dfdb::OptimizerReport marks;
    std::vector<dfdb::PlanNodePtr> plans;  ///< One per text.
    std::unique_ptr<dfdb::Scheduler> scheduler;
  };

  /// Generates the seeded events relation into \p storage and commits it;
  /// returns its page count.
  dfdb::StatusOr<uint64_t> BuildEvents(dfdb::StorageEngine* storage) {
    DFDB_RETURN_IF_ERROR(
        dfdb::GenerateSkewedRelation(storage, "events", kEvents, ctx_.seed)
            .status());
    DFDB_RETURN_IF_ERROR(storage->SyncAllStats());
    DFDB_RETURN_IF_ERROR(storage->CommitRelation("events"));
    DFDB_ASSIGN_OR_RETURN(dfdb::HeapFile * file, storage->GetHeapFile("events"));
    DFDB_RETURN_IF_ERROR(file->Flush());
    return file->PageIds().size();
  }

  /// ~1% time windows, one in each eighth of the relation, and equality
  /// probes on rare users (one or two sessions each), all seeded.
  dfdb::StatusOr<std::vector<std::string>> ProbeTexts(
      dfdb::StorageEngine* storage) {
    dfdb::Random rng(ctx_.seed);
    std::vector<std::string> texts;
    const uint64_t stride = kEvents / kTsProbes;
    for (int i = 0; i < kTsProbes; ++i) {
      const uint64_t lo = static_cast<uint64_t>(i) * stride +
                          rng.Uniform(stride - kWindow);
      texts.push_back(dfdb::StrFormat(
          "restrict(events, ts >= %llu and ts < %llu)",
          static_cast<unsigned long long>(lo),
          static_cast<unsigned long long>(lo + kWindow)));
    }
    DFDB_ASSIGN_OR_RETURN(
        dfdb::PlanNodePtr histogram,
        PlanText("agg(events, [user], [count() as n])", storage->catalog(),
                 nullptr));
    dfdb::ExecOptions options;
    options.num_processors = kEventsWorkers;
    DFDB_ASSIGN_OR_RETURN(dfdb::QueryResult counts,
                          dfdb::RunQuery(storage, *histogram, options));
    std::vector<int64_t> rare;
    DFDB_RETURN_IF_ERROR(
        counts.ForEachTuple([&](const dfdb::TupleView& t) -> dfdb::Status {
          DFDB_ASSIGN_OR_RETURN(dfdb::Value user, t.GetValue(0));
          DFDB_ASSIGN_OR_RETURN(dfdb::Value n, t.GetValue(1));
          DFDB_ASSIGN_OR_RETURN(double events, n.AsNumeric());
          DFDB_ASSIGN_OR_RETURN(double id, user.AsNumeric());
          if (events >= 100 && events <= 400) {
            rare.push_back(static_cast<int64_t>(id));
          }
          return dfdb::Status::OK();
        }));
    if (rare.size() < static_cast<size_t>(kUserProbes)) {
      return dfdb::Status::Internal("too few rare users for the probes");
    }
    std::sort(rare.begin(), rare.end());
    const std::vector<int> pick =
        SeededOrder(static_cast<int>(rare.size()), ctx_.seed + 1);
    for (int i = 0; i < kUserProbes; ++i) {
      const int64_t user = rare[static_cast<size_t>(pick[static_cast<size_t>(i)])];
      texts.push_back(dfdb::StrFormat("restrict(events, user = %lld)",
                                      static_cast<long long>(user)));
    }
    return texts;
  }

  /// One cycle: a round of kTsPerRound time windows and kUserPerRound
  /// rare users (rotating through the pools, submitted in seeded order),
  /// then one full scan.
  void Cycle(uint64_t cycle, OpLog* log) {
    std::vector<int> probes;
    for (int i = 0; i < kTsPerRound; ++i) {
      probes.push_back(static_cast<int>(
          (cycle * kTsPerRound + static_cast<uint64_t>(i)) % kTsProbes));
    }
    for (int i = 0; i < kUserPerRound; ++i) {
      probes.push_back(kTsProbes + static_cast<int>((cycle * kUserPerRound +
                                                     static_cast<uint64_t>(i)) %
                                                    kUserProbes));
    }
    const std::vector<int> order =
        SeededOrder(kProbesPerRound, ctx_.seed * 7919 + cycle);
    std::vector<int> round;
    for (int k : order) round.push_back(probes[static_cast<size_t>(k)]);
    RunOp(round, 2 * cycle, cycle == 0, log);
    RunOp({kTsProbes + kUserProbes}, 2 * cycle + 1, cycle == 0, log);
  }

  /// One op: submits every query of \p queries, then waits for each and
  /// checks its answer. A round's probes run concurrently, so the hand-offs
  /// between threads that start and end an op are shared by all eight.
  void RunOp(const std::vector<int>& queries, uint64_t op, bool warm_up,
             OpLog* log) {
    Instance& in = *inst_;
    const bool scan = queries.size() == 1;
    ++log->attempted;
    std::vector<Clock::time_point> submitted;
    std::vector<dfdb::StatusOr<dfdb::QueryHandle>> handles;
    const auto t0 = Clock::now();
    for (int q : queries) {
      handles.push_back(
          in.scheduler->Submit(*in.plans[static_cast<size_t>(q)]));
      submitted.push_back(Clock::now());
    }
    std::vector<dfdb::StatusOr<dfdb::QueryResult>> results;
    std::vector<Clock::time_point> answered;
    for (auto& handle : handles) {
      results.push_back(handle.ok() ? handle->Wait()
                                    : dfdb::StatusOr<dfdb::QueryResult>(
                                          handle.status()));
      answered.push_back(Clock::now());
    }
    const auto t1 = answered.back();
    for (size_t i = 0; i < queries.size(); ++i) {
      const size_t q = static_cast<size_t>(queries[i]);
      const std::string& text = texts_[q];
      if (!results[i].ok()) {
        log->Error(text + ": " + results[i].status().ToString());
        return;
      }
      std::string why;
      if (!CheckAnswer(expected_[q], *results[i], &why)) {
        log->Error(text + ": wrong answer: " + why);
        return;
      }
    }
    if (warm_up) return;
    log->Record(!scan, MsBetween(t0, t1), t1);
    const int64_t id =
        ctx_.spans->Add(scan ? "bench.scan" : "bench.round", NsOf(t0),
                        NsOf(t1), -1, op);
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto from = i == 0 ? t0 : submitted[i - 1];
      const double query_ms = MsBetween(submitted[i], answered[i]);
      submit_us_.push_back(MsBetween(from, submitted[i]) * 1e3);
      query_ms_.push_back(query_ms);
      if (!scan) {
        (queries[i] < kTsProbes ? ts_ms_ : user_ms_).push_back(query_ms);
      }
      ctx_.spans->Add("engine.submit", NsOf(from), NsOf(submitted[i]), id, op);
      ctx_.spans->Add("engine.query", NsOf(submitted[i]), NsOf(answered[i]),
                      id, op);
    }
  }

  const RunContext ctx_;
  /// kTsProbes time windows, kUserProbes rare users, then the scan.
  std::vector<std::string> texts_;
  std::vector<Answer> expected_;
  std::unique_ptr<Instance> inst_;
  double workload_build_s_ = 0;
  double index_build_s_ = 0;
  dfdb::ExecStats before_, after_;
  std::vector<double> submit_us_, query_ms_, ts_ms_, user_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeEventsScan(const RunContext& ctx) {
  return std::make_unique<EventsScan>(ctx);
}

}  // namespace perfbench
