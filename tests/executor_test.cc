/// \file executor_test.cc
/// \brief End-to-end tests of the data-flow engine against the serial
/// reference executor, across granularities and processor counts.

#include <gtest/gtest.h>

#include "engine/run.h"

#include "engine/reference.h"
#include "tests/test_util.h"
#include "workload/paper_benchmark.h"

namespace dfdb {
namespace {

using ::dfdb::testing::ExpectSameResult;

struct EngineParam {
  Granularity granularity;
  int processors;
};

std::string ParamName(const ::testing::TestParamInfo<EngineParam>& info) {
  return std::string(GranularityToString(info.param.granularity)) + "_p" +
         std::to_string(info.param.processors);
}

class ExecutorCorrectnessTest : public ::testing::TestWithParam<EngineParam> {
 protected:
  void SetUp() override {
    storage_ = std::make_unique<StorageEngine>(/*default_page_bytes=*/1000);
    ASSERT_OK_AND_ASSIGN(auto r1, GenerateRelation(storage_.get(), "alpha",
                                                   600, /*seed=*/7));
    ASSERT_OK_AND_ASSIGN(auto r2, GenerateRelation(storage_.get(), "beta",
                                                   250, /*seed=*/8));
    ASSERT_OK_AND_ASSIGN(auto r3, GenerateRelation(storage_.get(), "gamma",
                                                   120, /*seed=*/9));
    (void)r1;
    (void)r2;
    (void)r3;
  }

  ExecOptions Options() const {
    ExecOptions opts;
    opts.granularity = GetParam().granularity;
    opts.num_processors = GetParam().processors;
    opts.page_bytes = 1000;
    opts.local_memory_pages = 16;
    opts.disk_cache_pages = 64;
    return opts;
  }

  /// Runs \p plan on both engines and compares results.
  void CheckAgainstReference(const PlanNodePtr& plan) {
    ReferenceExecutor reference(storage_.get());
    ASSERT_OK_AND_ASSIGN(QueryResult expected, reference.Execute(*plan));
    ASSERT_OK_AND_ASSIGN(QueryResult actual,
                         RunQuery(storage_.get(), *plan, Options()));
    ExpectSameResult(expected, actual);
  }

  std::unique_ptr<StorageEngine> storage_;
};

TEST_P(ExecutorCorrectnessTest, RestrictOnly) {
  CheckAgainstReference(
      MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(200))));
}

TEST_P(ExecutorCorrectnessTest, RestrictConjunction) {
  CheckAgainstReference(MakeRestrict(
      MakeScan("alpha"),
      And(Lt(Col("k1000"), Lit(700)), Eq(Col("k2"), Lit(1)))));
}

TEST_P(ExecutorCorrectnessTest, RestrictNothingMatches) {
  CheckAgainstReference(
      MakeRestrict(MakeScan("beta"), Lt(Col("k1000"), Lit(0))));
}

TEST_P(ExecutorCorrectnessTest, RestrictEverythingMatches) {
  CheckAgainstReference(
      MakeRestrict(MakeScan("beta"), Ge(Col("k1000"), Lit(0))));
}

TEST_P(ExecutorCorrectnessTest, ProjectNoDedup) {
  CheckAgainstReference(MakeProject(MakeScan("alpha"), {"k10", "k100"}));
}

TEST_P(ExecutorCorrectnessTest, ProjectWithDedup) {
  CheckAgainstReference(
      MakeProject(MakeScan("alpha"), {"k10", "k2"}, /*dedup=*/true));
}

TEST_P(ExecutorCorrectnessTest, SimpleEquiJoin) {
  CheckAgainstReference(MakeJoin(MakeScan("beta"), MakeScan("gamma"),
                                 Eq(Col("k100"), RightCol("k100"))));
}

TEST_P(ExecutorCorrectnessTest, JoinWithRestrictedInputs) {
  CheckAgainstReference(
      MakeJoin(MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(300))),
               MakeRestrict(MakeScan("beta"), Lt(Col("k1000"), Lit(400))),
               Eq(Col("k100"), RightCol("k100"))));
}

TEST_P(ExecutorCorrectnessTest, NonEquiJoin) {
  CheckAgainstReference(
      MakeJoin(MakeRestrict(MakeScan("gamma"), Lt(Col("k1000"), Lit(200))),
               MakeRestrict(MakeScan("gamma"), Lt(Col("k1000"), Lit(150))),
               Lt(Col("k1000"), RightCol("k1000"))));
}

TEST_P(ExecutorCorrectnessTest, TwoJoinChain) {
  CheckAgainstReference(MakeJoin(
      MakeJoin(MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(150))),
               MakeRestrict(MakeScan("beta"), Lt(Col("k1000"), Lit(300))),
               Eq(Col("k100"), RightCol("k100"))),
      MakeRestrict(MakeScan("gamma"), Lt(Col("k1000"), Lit(500))),
      Eq(Col("k1000"), RightCol("k1000"))));
}

TEST_P(ExecutorCorrectnessTest, UnionSet) {
  CheckAgainstReference(MakeUnion(
      MakeProject(MakeScan("beta"), {"k100"}, true),
      MakeProject(MakeScan("gamma"), {"k100"}, true)));
}

TEST_P(ExecutorCorrectnessTest, UnionBag) {
  CheckAgainstReference(
      MakeUnion(MakeRestrict(MakeScan("beta"), Lt(Col("k1000"), Lit(300))),
                MakeRestrict(MakeScan("beta"), Ge(Col("k1000"), Lit(700))),
                /*bag_semantics=*/true));
}

TEST_P(ExecutorCorrectnessTest, Difference) {
  CheckAgainstReference(MakeDifference(
      MakeProject(MakeScan("beta"), {"k100"}, true),
      MakeProject(MakeRestrict(MakeScan("beta"), Lt(Col("k100"), Lit(50))),
                  {"k100"}, true)));
}

// The subtrahend is empty and closes first (gamma is a fifth of alpha's
// pages). Under relation granularity the minuend's close is what enables
// the node, and the minuend's buffered pages must still be released.
TEST_P(ExecutorCorrectnessTest, DifferenceEmptySubtrahendClosesFirst) {
  CheckAgainstReference(MakeDifference(
      MakeScan("alpha"),
      MakeRestrict(MakeScan("gamma"), Lt(Col("k1000"), Lit(0)))));
}

TEST_P(ExecutorCorrectnessTest, AggregateGrouped) {
  std::vector<AggregateSpec> specs;
  specs.push_back({AggregateSpec::Func::kCount, "", "cnt"});
  specs.push_back({AggregateSpec::Func::kSum, "k1000", "total"});
  specs.push_back({AggregateSpec::Func::kMin, "val", "lo"});
  specs.push_back({AggregateSpec::Func::kMax, "val", "hi"});
  CheckAgainstReference(
      MakeAggregate(MakeScan("alpha"), {"k10"}, std::move(specs)));
}

TEST_P(ExecutorCorrectnessTest, AggregateGlobal) {
  std::vector<AggregateSpec> specs;
  specs.push_back({AggregateSpec::Func::kCount, "", "cnt"});
  specs.push_back({AggregateSpec::Func::kAvg, "val", "avg_val"});
  CheckAgainstReference(MakeAggregate(MakeScan("beta"), {}, std::move(specs)));
}

TEST_P(ExecutorCorrectnessTest, AppendThenScan) {
  // Append restricted alpha rows into a fresh relation, then verify the
  // contents via a follow-up scan on both engines.
  ASSERT_OK_AND_ASSIGN(RelationId sink_rel,
                       storage_->CreateRelation("sink", BenchmarkSchema()));
  (void)sink_rel;
  auto append = MakeAppend(
      MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(100))), "sink");
  ASSERT_OK_AND_ASSIGN(QueryResult append_result,
                       RunQuery(storage_.get(), *append, Options()));
  EXPECT_EQ(append_result.num_tuples(), 0u);

  ReferenceExecutor reference(storage_.get());
  ASSERT_OK_AND_ASSIGN(
      QueryResult expected,
      reference.Execute(*MakeRestrict(MakeScan("alpha"),
                                      Lt(Col("k1000"), Lit(100)))));
  ASSERT_OK_AND_ASSIGN(QueryResult actual,
                       reference.Execute(*MakeScan("sink")));
  ExpectSameResult(expected, actual);
}

TEST_P(ExecutorCorrectnessTest, DeleteRemovesMatching) {
  ASSERT_OK_AND_ASSIGN(RelationId victim_rel,
                       GenerateRelation(storage_.get(), "victim", 200, 11));
  (void)victim_rel;
  auto del = MakeDelete("victim", Lt(Col("k1000"), Lit(500)));
  ASSERT_OK_AND_ASSIGN(QueryResult del_result,
                       RunQuery(storage_.get(), *del, Options()));
  EXPECT_EQ(del_result.num_tuples(), 0u);

  ReferenceExecutor reference(storage_.get());
  ASSERT_OK_AND_ASSIGN(QueryResult remaining,
                       reference.Execute(*MakeScan("victim")));
  Status check = remaining.ForEachTuple([](const TupleView& t) -> Status {
    auto v = t.GetValue(7);  // k1000.
    if (!v.ok()) return v.status();
    if (v->as_int32() < 500) {
      return Status::Internal("tuple should have been deleted");
    }
    return Status::OK();
  });
  EXPECT_OK(check);
}

TEST_P(ExecutorCorrectnessTest, ErrorPropagatesFromBadRelation) {
  auto plan = MakeScan("does_not_exist");
  auto result = RunQuery(storage_.get(), *plan, Options());
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound()) << result.status();
}

INSTANTIATE_TEST_SUITE_P(
    Granularities, ExecutorCorrectnessTest,
    ::testing::Values(EngineParam{Granularity::kPage, 1},
                      EngineParam{Granularity::kPage, 4},
                      EngineParam{Granularity::kPage, 8},
                      EngineParam{Granularity::kRelation, 1},
                      EngineParam{Granularity::kRelation, 4},
                      EngineParam{Granularity::kTuple, 1},
                      EngineParam{Granularity::kTuple, 4}),
    ParamName);

}  // namespace
}  // namespace dfdb
