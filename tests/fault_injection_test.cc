/// \file fault_injection_test.cc
/// \brief Deterministic fault injection and recovery for the ring machine
/// (and the threaded engine's analogue).
///
/// The contract under test: for any seeded FaultPlan the machine either
/// recovers — producing results bit-identical to a fault-free run, with
/// every recovery event counted — or fails cleanly with
/// Status::Unavailable. Never a hang, never a wrong answer, and every run
/// is exactly reproducible from (options, plan).

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "engine/run.h"
#include "engine/reference.h"
#include "machine/fault_injector.h"
#include "machine/simulator.h"
#include "tests/test_util.h"
#include "workload/paper_benchmark.h"

namespace dfdb {
namespace {

using ::dfdb::testing::ExpectSameResult;
using ::dfdb::testing::ResultMultiset;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = std::make_unique<StorageEngine>(/*default_page_bytes=*/2000);
    ASSERT_OK_AND_ASSIGN(auto a,
                         GenerateRelation(storage_.get(), "alpha", 400, 3));
    ASSERT_OK_AND_ASSIGN(auto b,
                         GenerateRelation(storage_.get(), "beta", 150, 4));
    ASSERT_OK_AND_ASSIGN(auto c,
                         GenerateRelation(storage_.get(), "gamma", 80, 5));
    (void)a;
    (void)b;
    (void)c;
  }

  MachineOptions Options(Granularity g, int ips = 4) const {
    MachineOptions opts;
    opts.granularity = g;
    opts.config.num_instruction_processors = ips;
    opts.config.num_instruction_controllers = 3;
    opts.config.page_bytes = 2000;
    opts.config.ic_local_memory_pages = 8;
    opts.config.disk_cache_pages = 64;
    return opts;
  }

  /// A plan that exercises the join protocol (page/relation granularity) or
  /// a small streaming pipeline (tuple granularity, where units are single
  /// tuples and big inputs would dominate the test's runtime).
  PlanNodePtr PlanFor(Granularity g) const {
    if (g == Granularity::kTuple) {
      return MakeRestrict(MakeScan("gamma"), Lt(Col("k1000"), Lit(500)));
    }
    return MakeJoin(
        MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(300))),
        MakeRestrict(MakeScan("beta"), Lt(Col("k1000"), Lit(500))),
        Eq(Col("k100"), RightCol("k100")));
  }

  /// Fast detection/retry knobs so the recovery machinery actually runs
  /// inside these short simulations.
  static void Tighten(FaultPlan* plan) {
    plan->detection_timeout = SimTime::Micros(500);
    plan->retry_backoff = SimTime::Micros(100);
  }

  std::unique_ptr<StorageEngine> storage_;
};

// ---------------------------------------------------------------------------
// Recovery sweep: granularity x fault type x injection point
// ---------------------------------------------------------------------------

using SweepParam = std::tuple<Granularity, FaultType, double>;

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto [g, f, frac] = info.param;
  std::string name(GranularityToString(g));
  name += "_";
  for (char c : FaultTypeToString(f)) {
    name += c == '-' ? '_' : c;
  }
  name += frac < 0.5 ? "_early" : "_late";
  return name;
}

class FaultSweepTest : public FaultInjectionTest,
                       public ::testing::WithParamInterface<SweepParam> {};

TEST_P(FaultSweepTest, RecoveredResultsMatchFaultFree) {
  const auto [granularity, fault, frac] = GetParam();
  PlanNodePtr plan = PlanFor(granularity);

  ReferenceExecutor reference(storage_.get());
  ASSERT_OK_AND_ASSIGN(QueryResult expected, reference.Execute(*plan));

  // Fault-free baseline fixes the injection time as a fraction of the
  // makespan, so every fault type strikes while work is in flight.
  MachineSimulator healthy(storage_.get(), Options(granularity));
  ASSERT_OK_AND_ASSIGN(MachineReport baseline, healthy.Run({plan.get()}));
  ExpectSameResult(expected, baseline.results[0]);
  const SimTime at = SimTime::Nanos(
      static_cast<int64_t>(static_cast<double>(baseline.makespan.nanos()) *
                           frac));

  FaultPlan fp;
  switch (fault) {
    case FaultType::kKillIp:
      fp = FaultPlan::KillIp(1, at);
      break;
    case FaultType::kFailIc:
      fp = FaultPlan::FailIc(0, at);
      break;
    case FaultType::kDropPacket:
      fp = FaultPlan::DropPackets(at, /*count=*/2);
      break;
    case FaultType::kCorruptPacket:
      fp = FaultPlan::CorruptPackets(at, /*count=*/2);
      break;
    case FaultType::kStallCache:
      fp = FaultPlan::StallCache(at, SimTime::Millis(30));
      break;
  }
  Tighten(&fp);

  MachineOptions faulted = Options(granularity);
  faulted.fault_plan = fp;
  MachineSimulator sim(storage_.get(), faulted);
  ASSERT_OK_AND_ASSIGN(MachineReport report, sim.Run({plan.get()}));

  // The one property that matters: the answer is exactly the fault-free
  // answer, no tuple lost to the fault and none duplicated by recovery.
  ExpectSameResult(expected, report.results[0]);
  ExpectSameResult(baseline.results[0], report.results[0]);

  if (fault == FaultType::kKillIp) {
    EXPECT_EQ(report.faults.ip_kills, 1u);
  }
  if (fault == FaultType::kFailIc) {
    EXPECT_EQ(report.faults.ic_failures, 1u);
    EXPECT_GE(report.faults.instructions_rehomed, 1u);
  }
  if (fault == FaultType::kStallCache) {
    EXPECT_EQ(report.faults.cache_stalls, 1u);
  }
  // Drop/corrupt faults only fire if an assignment packet crossed the ring
  // after `at`; with frac < 1 at least the injected count is consistent.
  EXPECT_EQ(report.faults.injected,
            report.faults.ip_kills + report.faults.ic_failures +
                report.faults.packets_dropped +
                report.faults.packets_corrupted + report.faults.cache_stalls);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FaultSweepTest,
    ::testing::Combine(
        ::testing::Values(Granularity::kPage, Granularity::kRelation,
                          Granularity::kTuple),
        ::testing::Values(FaultType::kKillIp, FaultType::kFailIc,
                          FaultType::kDropPacket, FaultType::kCorruptPacket,
                          FaultType::kStallCache),
        ::testing::Values(0.2, 0.6)),
    SweepName);

// ---------------------------------------------------------------------------
// Determinism: the report is a pure function of (options, plan)
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, SameSeedSameStormSameReport) {
  PlanNodePtr plan = PlanFor(Granularity::kPage);
  MachineSimulator healthy(storage_.get(), Options(Granularity::kPage));
  ASSERT_OK_AND_ASSIGN(MachineReport baseline, healthy.Run({plan.get()}));

  auto run_storm = [&](uint64_t seed) -> MachineReport {
    FaultPlan fp = FaultPlan::RandomStorm(seed, /*ip_kills=*/2,
                                          /*packet_faults=*/2,
                                          baseline.makespan);
    Tighten(&fp);
    MachineOptions opts = Options(Granularity::kPage, /*ips=*/8);
    opts.fault_plan = fp;
    MachineSimulator sim(storage_.get(), opts);
    auto report = sim.Run({plan.get()});
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return *std::move(report);
  };

  MachineReport r1 = run_storm(7);
  MachineReport r2 = run_storm(7);
  // Byte-identical measurements, not merely equal results.
  EXPECT_EQ(r1.makespan.nanos(), r2.makespan.nanos());
  EXPECT_EQ(r1.events, r2.events);
  EXPECT_EQ(r1.bytes.outer_ring, r2.bytes.outer_ring);
  EXPECT_EQ(r1.bytes.disk_read, r2.bytes.disk_read);
  EXPECT_EQ(r1.instruction_packets, r2.instruction_packets);
  EXPECT_EQ(r1.control_packets, r2.control_packets);
  EXPECT_EQ(r1.faults.injected, r2.faults.injected);
  EXPECT_EQ(r1.faults.timeouts, r2.faults.timeouts);
  EXPECT_EQ(r1.faults.retries, r2.faults.retries);
  EXPECT_EQ(r1.faults.redispatches, r2.faults.redispatches);
  EXPECT_EQ(r1.faults.retry_ns_lost, r2.faults.retry_ns_lost);
  EXPECT_EQ(ResultMultiset(r1.results[0]), ResultMultiset(r2.results[0]));
  // And still the right answer.
  ExpectSameResult(baseline.results[0], r1.results[0]);

  // A different seed is a different storm (the schedule itself differs).
  FaultPlan storm7 =
      FaultPlan::RandomStorm(7, 2, 2, baseline.makespan);
  FaultPlan storm8 =
      FaultPlan::RandomStorm(8, 2, 2, baseline.makespan);
  EXPECT_NE(storm7.ToString(), storm8.ToString());
  MachineReport r3 = run_storm(8);
  ExpectSameResult(baseline.results[0], r3.results[0]);
}

// ---------------------------------------------------------------------------
// The acceptance scenario: kill 1 of 8 IPs mid-benchmark
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, PaperBenchmarkSurvivesKillingOneOfEightIps) {
  StorageEngine bench_storage(/*default_page_bytes=*/2000);
  ASSERT_OK_AND_ASSIGN(int64_t total,
                       BuildPaperDatabase(&bench_storage, /*scale=*/0.2));
  EXPECT_GT(total, 0);
  std::vector<Query> queries = MakePaperBenchmarkQueries();
  std::vector<const PlanNode*> plans;
  for (const Query& q : queries) plans.push_back(q.root.get());

  MachineOptions opts;
  opts.granularity = Granularity::kPage;
  opts.config.num_instruction_processors = 8;
  opts.config.num_instruction_controllers = 3;
  opts.config.page_bytes = 2000;
  opts.config.ic_local_memory_pages = 16;
  opts.config.disk_cache_pages = 128;

  MachineSimulator healthy(&bench_storage, opts);
  ASSERT_OK_AND_ASSIGN(MachineReport baseline, healthy.Run(plans));
  ASSERT_EQ(baseline.results.size(), plans.size());

  // Strike at several points of the run: every strike must be survivable,
  // and at least one must catch the IP with undelivered work (a recorded
  // re-dispatch), or the recovery path was never really exercised.
  uint64_t total_redispatches = 0;
  for (double frac : {0.1, 0.25, 0.4, 0.55, 0.7}) {
    SCOPED_TRACE(frac);
    FaultPlan fp = FaultPlan::KillIp(
        1, SimTime::Nanos(static_cast<int64_t>(
               static_cast<double>(baseline.makespan.nanos()) * frac)));
    Tighten(&fp);
    MachineOptions faulted = opts;
    faulted.fault_plan = fp;
    MachineSimulator sim(&bench_storage, faulted);
    ASSERT_OK_AND_ASSIGN(MachineReport report, sim.Run(plans));
    EXPECT_EQ(report.faults.ip_kills, 1u);
    total_redispatches += report.faults.redispatches;
    // All ten benchmark answers identical to the fault-free run.
    ASSERT_EQ(report.results.size(), baseline.results.size());
    for (size_t i = 0; i < baseline.results.size(); ++i) {
      SCOPED_TRACE(i);
      ExpectSameResult(baseline.results[i], report.results[i]);
    }
  }
  EXPECT_GE(total_redispatches, 1u);
}

// ---------------------------------------------------------------------------
// Redundancy exhausted: clean Status, never a hang
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, AllIpsKilledFailsUnavailable) {
  PlanNodePtr plan = PlanFor(Granularity::kPage);
  MachineOptions opts = Options(Granularity::kPage, /*ips=*/2);
  FaultPlan fp;
  fp.events.push_back(
      {FaultType::kKillIp, SimTime::Millis(1), /*target=*/0, 1,
       SimTime::Zero()});
  fp.events.push_back(
      {FaultType::kKillIp, SimTime::Millis(1), /*target=*/1, 1,
       SimTime::Zero()});
  Tighten(&fp);
  opts.fault_plan = fp;
  MachineSimulator sim(storage_.get(), opts);
  auto report = sim.Run({plan.get()});
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsUnavailable()) << report.status().ToString();
}

TEST_F(FaultInjectionTest, RetryBudgetExhaustedFailsUnavailable) {
  // Every assignment packet corrupts forever: the IC retries max_retries
  // times, then gives up with a clean status instead of spinning.
  PlanNodePtr plan = PlanFor(Granularity::kPage);
  MachineOptions opts = Options(Granularity::kPage);
  FaultPlan fp = FaultPlan::CorruptPackets(SimTime::Zero(),
                                           /*count=*/1u << 20);
  Tighten(&fp);
  fp.max_retries = 2;
  opts.fault_plan = fp;
  MachineSimulator sim(storage_.get(), opts);
  auto report = sim.Run({plan.get()});
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsUnavailable()) << report.status().ToString();
}

TEST_F(FaultInjectionTest, AllIcsFailedFailsUnavailable) {
  PlanNodePtr plan = PlanFor(Granularity::kPage);
  MachineOptions opts = Options(Granularity::kPage);
  FaultPlan fp;
  for (int ic = 0; ic < 3; ++ic) {
    fp.events.push_back({FaultType::kFailIc, SimTime::Millis(1), ic, 1,
                         SimTime::Zero()});
  }
  Tighten(&fp);
  opts.fault_plan = fp;
  MachineSimulator sim(storage_.get(), opts);
  auto report = sim.Run({plan.get()});
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsUnavailable()) << report.status().ToString();
}

// ---------------------------------------------------------------------------
// Fault-free runs are untouched by the machinery
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, EmptyPlanChangesNothing) {
  PlanNodePtr plan = PlanFor(Granularity::kPage);
  MachineSimulator s1(storage_.get(), Options(Granularity::kPage, 8));
  ASSERT_OK_AND_ASSIGN(MachineReport r1, s1.Run({plan.get()}));
  MachineOptions opts = Options(Granularity::kPage, 8);
  opts.fault_plan.detection_timeout = SimTime::Micros(1);  // Plan still empty.
  MachineSimulator s2(storage_.get(), opts);
  ASSERT_OK_AND_ASSIGN(MachineReport r2, s2.Run({plan.get()}));
  EXPECT_EQ(r1.makespan.nanos(), r2.makespan.nanos());
  EXPECT_EQ(r1.events, r2.events);
  EXPECT_EQ(r1.bytes.outer_ring, r2.bytes.outer_ring);
  EXPECT_EQ(r1.control_packets, r2.control_packets);
  EXPECT_FALSE(r2.faults.any());
}

// ---------------------------------------------------------------------------
// Threaded-engine analogue
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, EngineSurvivesWorkerAbandonmentAndPoison) {
  auto q1 = MakeJoin(
      MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(300))),
      MakeScan("gamma"), Eq(Col("k100"), RightCol("k100")));
  auto q2 = MakeProject(MakeScan("beta"), {"k10", "k100"}, /*dedup=*/true);
  std::vector<const PlanNode*> raw{q1.get(), q2.get()};

  ReferenceExecutor reference(storage_.get());
  ASSERT_OK_AND_ASSIGN(QueryResult e1, reference.Execute(*q1));
  ASSERT_OK_AND_ASSIGN(QueryResult e2, reference.Execute(*q2));

  ExecOptions opts;
  opts.num_processors = 4;
  opts.page_bytes = 2000;
  opts.fault_plan.abandon_workers = 2;
  opts.fault_plan.abandon_after_tasks = 3;
  opts.fault_plan.poison_packets = 7;
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<QueryResult> results,
                       RunBatch(storage_.get(), raw, opts, &stats));
  ExpectSameResult(e1, results[0]);
  ExpectSameResult(e2, results[1]);
  EXPECT_EQ(stats.workers_abandoned, 2u);
  EXPECT_EQ(stats.poison_dropped, 7u);
  EXPECT_GE(stats.faults_injected, 9u);
}

TEST_F(FaultInjectionTest, EngineAbandonCountIsExactOnAShortBatch) {
  // Five tasks, four workers: the healthy workers could drain the batch
  // before a doomed worker claims its fourth task, so the abandon point
  // counts claims across the pool, not per worker.
  ASSERT_OK_AND_ASSIGN(auto delta,
                       GenerateRelation(storage_.get(), "delta", 40, 6));
  (void)delta;
  auto q = MakeRestrict(MakeScan("delta"), Ge(Col("k1000"), Lit(200)));
  ReferenceExecutor reference(storage_.get());
  ASSERT_OK_AND_ASSIGN(QueryResult expected, reference.Execute(*q));
  ExecOptions opts;
  opts.num_processors = 4;
  opts.page_bytes = 2000;
  opts.fault_plan.abandon_workers = 2;
  opts.fault_plan.abandon_after_tasks = 3;
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(QueryResult result,
                       RunQuery(storage_.get(), *q, opts, &stats));
  ExpectSameResult(expected, result);
  EXPECT_EQ(stats.tasks_executed, 5u);
  EXPECT_EQ(stats.workers_abandoned, 2u);
  EXPECT_EQ(stats.redispatched_tasks, 2u);
}

TEST_F(FaultInjectionTest, EngineClampsSoOneWorkerSurvives) {
  // Asking every worker to abandon must still finish the batch: the clamp
  // guarantees one survivor drains the queue.
  auto q = MakeRestrict(MakeScan("alpha"), Ge(Col("k1000"), Lit(500)));
  ReferenceExecutor reference(storage_.get());
  ASSERT_OK_AND_ASSIGN(QueryResult expected, reference.Execute(*q));
  ExecOptions opts;
  opts.num_processors = 3;
  opts.page_bytes = 2000;
  opts.fault_plan.abandon_workers = 99;
  opts.fault_plan.abandon_after_tasks = 1;
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(QueryResult result,
                       RunQuery(storage_.get(), *q, opts, &stats));
  ExpectSameResult(expected, result);
  EXPECT_LE(stats.workers_abandoned, 2u);
}

}  // namespace
}  // namespace dfdb
