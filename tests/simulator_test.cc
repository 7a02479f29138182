/// \file simulator_test.cc
/// \brief The machine simulator must produce exactly the reference results
/// (it is execution-driven) and sensible timing/traffic measurements.

#include "machine/simulator.h"

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/reference.h"
#include "engine/run.h"
#include "tests/test_util.h"
#include "workload/paper_benchmark.h"

namespace dfdb {
namespace {

using ::dfdb::testing::ExpectSameResult;

class SimulatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = std::make_unique<StorageEngine>(/*default_page_bytes=*/2000);
    ASSERT_OK_AND_ASSIGN(auto a, GenerateRelation(storage_.get(), "alpha",
                                                  400, 3));
    ASSERT_OK_AND_ASSIGN(auto b, GenerateRelation(storage_.get(), "beta",
                                                  150, 4));
    ASSERT_OK_AND_ASSIGN(auto c, GenerateRelation(storage_.get(), "gamma",
                                                  80, 5));
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

  void CheckAgainstReference(const PlanNodePtr& plan, Granularity g,
                             int ips = 4) {
    ReferenceExecutor reference(storage_.get());
    ASSERT_OK_AND_ASSIGN(QueryResult expected, reference.Execute(*plan));
    MachineSimulator sim(storage_.get(), Options(g, ips));
    ASSERT_OK_AND_ASSIGN(MachineReport report, sim.Run({plan.get()}));
    ASSERT_EQ(report.results.size(), 1u);
    ExpectSameResult(expected, report.results[0]);
    EXPECT_GT(report.makespan.nanos(), 0);
    EXPECT_GT(report.bytes.disk_read, 0u);
  }

  std::unique_ptr<StorageEngine> storage_;
};

TEST_F(SimulatorTest, RestrictPageGranularity) {
  CheckAgainstReference(
      MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(250))),
      Granularity::kPage);
}

TEST_F(SimulatorTest, RestrictRelationGranularity) {
  CheckAgainstReference(
      MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(250))),
      Granularity::kRelation);
}

TEST_F(SimulatorTest, RestrictTupleGranularity) {
  CheckAgainstReference(
      MakeRestrict(MakeScan("gamma"), Lt(Col("k1000"), Lit(500))),
      Granularity::kTuple);
}

TEST_F(SimulatorTest, BareScanWrapped) {
  CheckAgainstReference(MakeScan("beta"), Granularity::kPage);
}

TEST_F(SimulatorTest, JoinPageGranularity) {
  CheckAgainstReference(
      MakeJoin(MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(300))),
               MakeRestrict(MakeScan("beta"), Lt(Col("k1000"), Lit(500))),
               Eq(Col("k100"), RightCol("k100"))),
      Granularity::kPage);
}

TEST_F(SimulatorTest, JoinRelationGranularity) {
  CheckAgainstReference(
      MakeJoin(MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(300))),
               MakeRestrict(MakeScan("beta"), Lt(Col("k1000"), Lit(500))),
               Eq(Col("k100"), RightCol("k100"))),
      Granularity::kRelation);
}

TEST_F(SimulatorTest, JoinSingleIp) {
  CheckAgainstReference(
      MakeJoin(MakeScan("beta"), MakeScan("gamma"),
               Eq(Col("k100"), RightCol("k100"))),
      Granularity::kPage, /*ips=*/1);
}

TEST_F(SimulatorTest, JoinManyIps) {
  CheckAgainstReference(
      MakeJoin(MakeScan("beta"), MakeScan("gamma"),
               Eq(Col("k100"), RightCol("k100"))),
      Granularity::kPage, /*ips=*/16);
}

TEST_F(SimulatorTest, TwoJoinChain) {
  CheckAgainstReference(
      MakeJoin(
          MakeJoin(MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(200))),
                   MakeScan("gamma"), Eq(Col("k100"), RightCol("k100"))),
          MakeRestrict(MakeScan("beta"), Lt(Col("k1000"), Lit(400))),
          Eq(Col("k1000"), RightCol("k1000"))),
      Granularity::kPage);
}

TEST_F(SimulatorTest, EmptyJoinSide) {
  // Restrict that matches nothing: the join must still terminate and
  // produce zero tuples.
  CheckAgainstReference(
      MakeJoin(MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(0))),
               MakeScan("gamma"), Eq(Col("k100"), RightCol("k100"))),
      Granularity::kPage);
}

TEST_F(SimulatorTest, ProjectDedupBarrier) {
  CheckAgainstReference(
      MakeProject(MakeScan("alpha"), {"k10"}, /*dedup=*/true),
      Granularity::kPage);
}

TEST_F(SimulatorTest, AggregateBarrier) {
  std::vector<AggregateSpec> specs;
  specs.push_back({AggregateSpec::Func::kCount, "", "cnt"});
  specs.push_back({AggregateSpec::Func::kSum, "k1000", "total"});
  CheckAgainstReference(MakeAggregate(MakeScan("beta"), {"k10"}, specs),
                        Granularity::kPage);
}

TEST_F(SimulatorTest, DoubleAggregatesIdenticalOnEveryBackendAndPageOrder) {
  // SUM and AVG over DOUBLE add exactly, so neither the IP count, the
  // granularity nor the engine's worker count — which all change the order
  // pages reach the aggregate — moves a bit.
  std::vector<AggregateSpec> specs;
  specs.push_back({AggregateSpec::Func::kCount, "", "cnt"});
  specs.push_back({AggregateSpec::Func::kSum, "val", "total"});
  specs.push_back({AggregateSpec::Func::kAvg, "val", "mean"});
  specs.push_back({AggregateSpec::Func::kMin, "val", "lo"});
  specs.push_back({AggregateSpec::Func::kMax, "val", "hi"});
  for (const std::vector<std::string>& group_by :
       {std::vector<std::string>{}, std::vector<std::string>{"k10"}}) {
    PlanNodePtr plan = MakeAggregate(MakeScan("alpha"), group_by, specs);
    ReferenceExecutor reference(storage_.get());
    ASSERT_OK_AND_ASSIGN(QueryResult expected, reference.Execute(*plan));
    for (Granularity g :
         {Granularity::kPage, Granularity::kRelation, Granularity::kTuple}) {
      for (int ips : {1, 3, 8}) {
        MachineSimulator sim(storage_.get(), Options(g, ips));
        ASSERT_OK_AND_ASSIGN(MachineReport report, sim.Run({plan.get()}));
        ASSERT_EQ(report.results.size(), 1u);
        ExpectSameResult(expected, report.results[0]);
      }
    }
    for (int procs : {1, 4}) {
      ExecOptions opts;
      opts.num_processors = procs;
      opts.page_bytes = 2000;
      ASSERT_OK_AND_ASSIGN(QueryResult actual,
                           RunQuery(storage_.get(), *plan, opts));
      ExpectSameResult(expected, actual);
    }
  }
}

TEST(MinMaxOrderTest, DoubleMinMaxIgnorePageOrderOnEveryBackend) {
  // One tuple per page, so reversing the rows reverses the page order the
  // aggregate sees. NaN against 1.0 and -0.0 against 0.0 compare equal
  // numerically; IEEE 754 totalOrder still picks one of each pair.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<AggregateSpec> specs;
  specs.push_back({AggregateSpec::Func::kMin, "v", "lo"});
  specs.push_back({AggregateSpec::Func::kMax, "v", "hi"});
  PlanNodePtr plan = MakeAggregate(MakeScan("d"), {}, specs);
  for (const std::vector<double>& rows :
       {std::vector<double>{nan, 1.0}, std::vector<double>{0.0, -0.0}}) {
    std::vector<std::vector<std::string>> results;
    for (bool reversed : {false, true}) {
      StorageEngine storage(/*default_page_bytes=*/8);
      ASSERT_OK(storage.CreateRelation(
          "d", Schema::CreateOrDie({Column::Double("v")})).status());
      ASSERT_OK_AND_ASSIGN(HeapFile * file, storage.GetHeapFile("d"));
      for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_OK(file->Append(
            {Value::Double(rows[reversed ? rows.size() - 1 - i : i])}));
      }
      ASSERT_OK(storage.SyncStats("d"));
      ReferenceExecutor reference(&storage);
      ASSERT_OK_AND_ASSIGN(QueryResult expected, reference.Execute(*plan));
      results.push_back(::dfdb::testing::ResultMultiset(expected));
      MachineOptions mopts;
      mopts.config.page_bytes = 8;
      MachineSimulator sim(&storage, mopts);
      ASSERT_OK_AND_ASSIGN(MachineReport report, sim.Run({plan.get()}));
      ExpectSameResult(expected, report.results[0]);
      ExecOptions eopts;
      eopts.num_processors = 1;
      eopts.page_bytes = 8;
      ASSERT_OK_AND_ASSIGN(QueryResult engine,
                           RunQuery(&storage, *plan, eopts));
      ExpectSameResult(expected, engine);
    }
    EXPECT_EQ(results[0], results[1]);
  }
}

TEST(MinMaxOrderTest, CharMinMaxMatchesReferenceOnEveryBackend) {
  // The CHAR column varies by group, with trailing and embedded blanks and
  // empty strings; two tuples per page spread each group over pages.
  const std::vector<std::pair<int32_t, std::string>> rows = {
      {0, "pear"}, {1, "b a"},  {2, ""},    {0, "apple "}, {1, "b"},
      {2, " z"},   {0, "fig"},  {1, "b  a"}, {2, "  "},    {0, "apple"},
      {1, "ba"},   {2, "z "},   {3, "only"},
  };
  const Schema schema =
      Schema::CreateOrDie({Column::Int32("k"), Column::Char("s", 6)});
  const int page_bytes = 2 * schema.tuple_width();
  StorageEngine storage(page_bytes);
  ASSERT_OK(storage.CreateRelation("c", schema).status());
  ASSERT_OK_AND_ASSIGN(HeapFile * file, storage.GetHeapFile("c"));
  for (const auto& [k, s] : rows) {
    ASSERT_OK(file->Append({Value::Int32(k), Value::Char(s)}));
  }
  ASSERT_OK(storage.SyncStats("c"));
  std::vector<AggregateSpec> specs;
  specs.push_back({AggregateSpec::Func::kMin, "s", "lo"});
  specs.push_back({AggregateSpec::Func::kMax, "s", "hi"});
  specs.push_back({AggregateSpec::Func::kCount, "", "n"});
  PlanNodePtr plan = MakeAggregate(MakeScan("c"), {"k"}, specs);

  ReferenceExecutor reference(&storage);
  ASSERT_OK_AND_ASSIGN(QueryResult expected, reference.Execute(*plan));
  EXPECT_EQ(expected.num_tuples(), 4u);
  MachineOptions mopts;
  mopts.config.page_bytes = page_bytes;
  MachineSimulator sim(&storage, mopts);
  ASSERT_OK_AND_ASSIGN(MachineReport report, sim.Run({plan.get()}));
  ExpectSameResult(expected, report.results[0]);
  ExecOptions eopts;
  eopts.num_processors = 2;
  eopts.page_bytes = page_bytes;
  ASSERT_OK_AND_ASSIGN(QueryResult engine, RunQuery(&storage, *plan, eopts));
  ExpectSameResult(expected, engine);
}

TEST_F(SimulatorTest, DifferenceBarrier) {
  CheckAgainstReference(
      MakeDifference(
          MakeProject(MakeScan("beta"), {"k100"}, true),
          MakeProject(MakeRestrict(MakeScan("beta"), Lt(Col("k100"), Lit(40))),
                      {"k100"}, true)),
      Granularity::kPage);
}

TEST_F(SimulatorTest, MultiQueryBatch) {
  auto q1 = MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(100)));
  auto q2 = MakeJoin(MakeScan("beta"), MakeScan("gamma"),
                     Eq(Col("k100"), RightCol("k100")));
  ReferenceExecutor reference(storage_.get());
  ASSERT_OK_AND_ASSIGN(QueryResult e1, reference.Execute(*q1));
  ASSERT_OK_AND_ASSIGN(QueryResult e2, reference.Execute(*q2));

  MachineSimulator sim(storage_.get(), Options(Granularity::kPage, 6));
  ASSERT_OK_AND_ASSIGN(MachineReport report, sim.Run({q1.get(), q2.get()}));
  ASSERT_EQ(report.results.size(), 2u);
  ExpectSameResult(e1, report.results[0]);
  ExpectSameResult(e2, report.results[1]);
  // Both queries completed and were timed.
  EXPECT_GT(report.query_completion[0].nanos(), 0);
  EXPECT_GT(report.query_completion[1].nanos(), 0);
  EXPECT_GE(report.makespan, report.query_completion[0]);
  EXPECT_GE(report.makespan, report.query_completion[1]);
}

TEST_F(SimulatorTest, PageBeatsRelationGranularity) {
  // The paper's central claim (Figure 3.1): page-level granularity
  // outperforms relation-level on multi-operator queries.
  auto plan =
      MakeJoin(MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(300))),
               MakeRestrict(MakeScan("beta"), Lt(Col("k1000"), Lit(500))),
               Eq(Col("k100"), RightCol("k100")));
  MachineSimulator page_sim(storage_.get(), Options(Granularity::kPage, 8));
  ASSERT_OK_AND_ASSIGN(MachineReport page_report, page_sim.Run({plan.get()}));
  MachineSimulator rel_sim(storage_.get(), Options(Granularity::kRelation, 8));
  ASSERT_OK_AND_ASSIGN(MachineReport rel_report, rel_sim.Run({plan.get()}));
  EXPECT_LT(page_report.makespan.nanos(), rel_report.makespan.nanos())
      << "page=" << page_report.makespan << " relation=" << rel_report.makespan;
}

TEST_F(SimulatorTest, BroadcastReducesRingTraffic) {
  auto plan = MakeJoin(MakeScan("alpha"), MakeScan("beta"),
                       Eq(Col("k100"), RightCol("k100")));
  MachineOptions bcast = Options(Granularity::kPage, 8);
  MachineOptions unicast = Options(Granularity::kPage, 8);
  unicast.broadcast_join = false;
  MachineSimulator s1(storage_.get(), bcast);
  ASSERT_OK_AND_ASSIGN(MachineReport r1, s1.Run({plan.get()}));
  MachineSimulator s2(storage_.get(), unicast);
  ASSERT_OK_AND_ASSIGN(MachineReport r2, s2.Run({plan.get()}));
  EXPECT_LT(r1.bytes.outer_ring, r2.bytes.outer_ring);
  // Results identical either way.
  ExpectSameResult(r1.results[0], r2.results[0]);
}

TEST_F(SimulatorTest, DirectRoutingPreservesResultsAndCutsTraffic) {
  // Section 5.0 future work: IP-to-IP result routing must not change any
  // result and must not increase outer-ring traffic.
  auto plan =
      MakeJoin(MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(400))),
               MakeRestrict(MakeScan("beta"), Lt(Col("k1000"), Lit(600))),
               Eq(Col("k100"), RightCol("k100")));
  MachineOptions via_ic = Options(Granularity::kPage, 8);
  MachineOptions direct = Options(Granularity::kPage, 8);
  direct.ip_direct_routing = true;
  MachineSimulator s1(storage_.get(), via_ic);
  ASSERT_OK_AND_ASSIGN(MachineReport r1, s1.Run({plan.get()}));
  MachineSimulator s2(storage_.get(), direct);
  ASSERT_OK_AND_ASSIGN(MachineReport r2, s2.Run({plan.get()}));
  ExpectSameResult(r1.results[0], r2.results[0]);
  EXPECT_GT(r2.direct_routes, 0u);
  EXPECT_LE(r2.bytes.outer_ring, r1.bytes.outer_ring);
}

TEST_F(SimulatorTest, ParallelProjectMatchesSerial) {
  // Section 5.0 future work: the hash-partitioned parallel project must
  // produce exactly the serial barrier's result set and run no slower
  // with multiple IPs.
  auto plan = MakeProject(MakeScan("alpha"), {"k100", "k10"}, /*dedup=*/true);
  MachineOptions serial = Options(Granularity::kPage, 8);
  MachineOptions parallel = Options(Granularity::kPage, 8);
  parallel.parallel_project = true;
  parallel.project_partitions = 4;
  MachineSimulator s1(storage_.get(), serial);
  ASSERT_OK_AND_ASSIGN(MachineReport r1, s1.Run({plan.get()}));
  MachineSimulator s2(storage_.get(), parallel);
  ASSERT_OK_AND_ASSIGN(MachineReport r2, s2.Run({plan.get()}));
  ExpectSameResult(r1.results[0], r2.results[0]);
  EXPECT_LE(r2.makespan.nanos(), r1.makespan.nanos());
  // Also correct against the reference executor.
  ReferenceExecutor reference(storage_.get());
  ASSERT_OK_AND_ASSIGN(QueryResult expected, reference.Execute(*plan));
  ExpectSameResult(expected, r2.results[0]);
}

TEST_F(SimulatorTest, ParallelProjectUnderJoin) {
  // A dedup-project feeding a join, parallel mode: the consumer must see a
  // correctly deduplicated stream.
  auto plan = MakeJoin(
      MakeProject(MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(400))),
                  {"k100", "k1000"}, /*dedup=*/true),
      MakeScan("gamma"), Eq(Col("k100"), RightCol("k100")));
  MachineOptions opts = Options(Granularity::kPage, 8);
  opts.parallel_project = true;
  ReferenceExecutor reference(storage_.get());
  ASSERT_OK_AND_ASSIGN(QueryResult expected, reference.Execute(*plan));
  MachineSimulator sim(storage_.get(), opts);
  ASSERT_OK_AND_ASSIGN(MachineReport report, sim.Run({plan.get()}));
  ExpectSameResult(expected, report.results[0]);
}

TEST_F(SimulatorTest, KernelCountsMatchAcrossBackends) {
  // Both backends run one program per plan node, built before any page
  // moves: a predicate the compiler refuses is one compile fallback whether
  // or not pages reach it, and a delete evaluates its predicate once, in
  // its delete step, rather than per staged page.
  std::vector<PlanNodePtr> plans;
  plans.push_back(
      MakeDelete("alpha", Lt(Div(Col("k1000"), Lit(3)), Lit(100))));
  plans.push_back(
      MakeRestrict(MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(0))),
                   Lt(Div(Col("k1000"), Lit(3)), Lit(100))));
  plans.push_back(MakeDelete("alpha", Lt(Col("k1000"), Lit(100))));
  const uint64_t want_fallbacks[] = {1, 1, 0};
  // A delete mutates alpha, so every run starts from the same fresh copy.
  auto fresh_alpha = [] {
    auto storage = std::make_unique<StorageEngine>(/*default_page_bytes=*/2000);
    EXPECT_OK(GenerateRelation(storage.get(), "alpha", 400, 3).status());
    return storage;
  };
  for (size_t i = 0; i < plans.size(); ++i) {
    SCOPED_TRACE(i);
    auto engine_db = fresh_alpha();
    ExecOptions eopts;
    eopts.page_bytes = 2000;
    ExecStats engine;
    ASSERT_OK(RunQuery(engine_db.get(), *plans[i], eopts, &engine).status());
    auto machine_db = fresh_alpha();
    MachineSimulator sim(machine_db.get(), Options(Granularity::kPage));
    ASSERT_OK_AND_ASSIGN(MachineReport report, sim.Run({plans[i].get()}));
    EXPECT_EQ(engine.kernel.ToString(), report.kernel.ToString());
    EXPECT_EQ(report.kernel.compile_fallbacks, want_fallbacks[i]);
  }
}

TEST_F(SimulatorTest, DeterministicAcrossRuns) {
  auto plan =
      MakeJoin(MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(300))),
               MakeScan("gamma"), Eq(Col("k100"), RightCol("k100")));
  MachineSimulator s1(storage_.get(), Options(Granularity::kPage, 8));
  ASSERT_OK_AND_ASSIGN(MachineReport r1, s1.Run({plan.get()}));
  MachineSimulator s2(storage_.get(), Options(Granularity::kPage, 8));
  ASSERT_OK_AND_ASSIGN(MachineReport r2, s2.Run({plan.get()}));
  EXPECT_EQ(r1.makespan.nanos(), r2.makespan.nanos());
  EXPECT_EQ(r1.bytes.outer_ring, r2.bytes.outer_ring);
  EXPECT_EQ(r1.events, r2.events);
}

}  // namespace
}  // namespace dfdb
