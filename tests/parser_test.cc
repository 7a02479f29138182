/// \file parser_test.cc
/// \brief Tests for the RAQL parser: structure, predicates, errors, and an
/// end-to-end parse -> analyze -> execute round trip.

#include "ra/parser.h"

#include <gtest/gtest.h>

#include "engine/reference.h"
#include "ra/analyzer.h"
#include "ra/optimizer.h"
#include "ra/raql.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace dfdb {
namespace {

TEST(ParserTest, BareIdentifierIsScan) {
  ASSERT_OK_AND_ASSIGN(PlanNodePtr q, ParseQuery("orders"));
  EXPECT_EQ(q->op, PlanOp::kScan);
  EXPECT_EQ(q->relation, "orders");
}

TEST(ParserTest, RestrictWithPredicate) {
  ASSERT_OK_AND_ASSIGN(PlanNodePtr q,
                       ParseQuery("restrict(r01, k1000 < 100 and k2 = 1)"));
  EXPECT_EQ(q->op, PlanOp::kRestrict);
  EXPECT_EQ(q->child(0).op, PlanOp::kScan);
  EXPECT_EQ(q->predicate->ToString(), "((k1000 < 100) AND (k2 = 1))");
}

TEST(ParserTest, ProjectPlainAndDedup) {
  ASSERT_OK_AND_ASSIGN(PlanNodePtr plain,
                       ParseQuery("project(r01, [k100, val])"));
  EXPECT_EQ(plain->op, PlanOp::kProject);
  EXPECT_EQ(plain->columns, (std::vector<std::string>{"k100", "val"}));
  EXPECT_FALSE(plain->dedup);
  ASSERT_OK_AND_ASSIGN(PlanNodePtr dd,
                       ParseQuery("project(r01, [k100], dedup)"));
  EXPECT_TRUE(dd->dedup);
}

TEST(ParserTest, JoinWithRightColumns) {
  ASSERT_OK_AND_ASSIGN(
      PlanNodePtr q,
      ParseQuery("join(restrict(r01, k1000 < 100), r06, "
                 "k100 = right.k100)"));
  EXPECT_EQ(q->op, PlanOp::kJoin);
  EXPECT_EQ(q->num_children(), 2);
  EXPECT_EQ(q->predicate->ToString(), "(k100 = right.k100)");
  EXPECT_TRUE(q->predicate->ReferencesRight());
}

TEST(ParserTest, UnionAndDiff) {
  ASSERT_OK_AND_ASSIGN(PlanNodePtr set_union, ParseQuery("union(a, b)"));
  EXPECT_EQ(set_union->op, PlanOp::kUnion);
  EXPECT_FALSE(set_union->bag_semantics);
  ASSERT_OK_AND_ASSIGN(PlanNodePtr bag_union, ParseQuery("union(a, b, bag)"));
  EXPECT_TRUE(bag_union->bag_semantics);
  ASSERT_OK_AND_ASSIGN(PlanNodePtr diff, ParseQuery("diff(a, b)"));
  EXPECT_EQ(diff->op, PlanOp::kDifference);
}

TEST(ParserTest, Aggregate) {
  ASSERT_OK_AND_ASSIGN(
      PlanNodePtr q,
      ParseQuery("agg(r01, [k10], [count() as n, sum(k1000) as total, "
                 "avg(val) as m])"));
  EXPECT_EQ(q->op, PlanOp::kAggregate);
  EXPECT_EQ(q->columns, std::vector<std::string>{"k10"});
  ASSERT_EQ(q->aggregates.size(), 3u);
  EXPECT_EQ(q->aggregates[0].func, AggregateSpec::Func::kCount);
  EXPECT_EQ(q->aggregates[0].output_name, "n");
  EXPECT_EQ(q->aggregates[1].func, AggregateSpec::Func::kSum);
  EXPECT_EQ(q->aggregates[1].column, "k1000");
  EXPECT_EQ(q->aggregates[2].func, AggregateSpec::Func::kAvg);
  // Empty group-by.
  ASSERT_OK_AND_ASSIGN(PlanNodePtr global,
                       ParseQuery("agg(r01, [], [count() as n])"));
  EXPECT_TRUE(global->columns.empty());
}

TEST(ParserTest, AppendAndDelete) {
  ASSERT_OK_AND_ASSIGN(PlanNodePtr app,
                       ParseQuery("append(restrict(a, k2 = 0), archive)"));
  EXPECT_EQ(app->op, PlanOp::kAppend);
  EXPECT_EQ(app->relation, "archive");
  ASSERT_OK_AND_ASSIGN(PlanNodePtr del,
                       ParseQuery("delete(archive, k1000 >= 500)"));
  EXPECT_EQ(del->op, PlanOp::kDelete);
  EXPECT_EQ(del->relation, "archive");
  EXPECT_EQ(del->predicate->ToString(), "(k1000 >= 500)");
}

TEST(ParserTest, PredicateGrammar) {
  ASSERT_OK_AND_ASSIGN(
      ExprPtr p, ParsePredicate("not (a < 3 or b >= 2) and c != 'xy'"));
  EXPECT_EQ(p->ToString(), "(NOT ((a < 3) OR (b >= 2)) AND (c != xy))");
  ASSERT_OK_AND_ASSIGN(ExprPtr arith,
                       ParsePredicate("a + b * 2 - 1 = c / 4"));
  EXPECT_EQ(arith->ToString(), "(((a + (b * 2)) - 1) = (c / 4))");
  ASSERT_OK_AND_ASSIGN(ExprPtr neg, ParsePredicate("a = -5"));
  EXPECT_EQ(neg->ToString(), "(a = -5)");
  ASSERT_OK_AND_ASSIGN(ExprPtr fl, ParsePredicate("val < 0.25"));
  EXPECT_EQ(fl->ToString(), "(val < 0.25)");
}

TEST(ParserTest, ErrorsCarryPosition) {
  auto r1 = ParseQuery("restrict(r01 k2 = 1)");
  EXPECT_TRUE(r1.status().IsInvalidArgument());
  EXPECT_NE(r1.status().message().find("parse error at"), std::string::npos);
  EXPECT_FALSE(ParseQuery("frobnicate(a, b)").ok());
  EXPECT_FALSE(ParseQuery("restrict(a, )").ok());
  EXPECT_FALSE(ParseQuery("join(a, b)").ok());              // Missing pred.
  EXPECT_FALSE(ParseQuery("project(a, [k1,])").ok());       // Trailing comma.
  EXPECT_FALSE(ParseQuery("restrict(a, x = 'open").ok());   // Bad string.
  EXPECT_FALSE(ParseQuery("a b").ok());                     // Trailing junk.
  EXPECT_FALSE(ParseQuery("agg(a, [k1], [median(x) as m])").ok());
  EXPECT_FALSE(ParseQuery("").ok());
}

TEST(ParserTest, ParseAnalyzeExecuteRoundTrip) {
  StorageEngine storage(800);
  ASSERT_OK_AND_ASSIGN(auto a, GenerateRelation(&storage, "events", 400, 3));
  ASSERT_OK_AND_ASSIGN(auto b, GenerateRelation(&storage, "users", 100, 4));
  (void)a;
  (void)b;
  ASSERT_OK_AND_ASSIGN(
      PlanNodePtr parsed,
      ParseQuery("join(restrict(events, k1000 < 300), "
                 "restrict(users, k1000 < 500), k100 = right.k100)"));
  // Identical hand-built tree.
  auto manual =
      MakeJoin(MakeRestrict(MakeScan("events"), Lt(Col("k1000"), Lit(300))),
               MakeRestrict(MakeScan("users"), Lt(Col("k1000"), Lit(500))),
               Eq(Col("k100"), RightCol("k100")));
  ReferenceExecutor reference(&storage);
  ASSERT_OK_AND_ASSIGN(QueryResult from_text, reference.Execute(*parsed));
  ASSERT_OK_AND_ASSIGN(QueryResult from_code, reference.Execute(*manual));
  testing::ExpectSameResult(from_code, from_text);
  EXPECT_GT(from_text.num_tuples(), 0u);
}

TEST(ParserTest, SwappedJoinPrintsAsTheJoinItReplaced) {
  StorageEngine storage(800);
  ASSERT_OK_AND_ASSIGN(auto a, GenerateRelation(&storage, "small", 60, 5));
  ASSERT_OK_AND_ASSIGN(auto b, GenerateRelation(&storage, "big", 400, 6));
  (void)a;
  (void)b;
  const std::string text =
      "project(join(restrict(small, k1000 < 900), join(big, "
      "restrict(small, k10 < 5), k25 = right.k25), k100 = right.k100_r), "
      "[id, k100_r, seq_r_r])";
  ASSERT_OK_AND_ASSIGN(PlanNodePtr parsed, ParseQuery(text));
  Optimizer optimizer(&storage.catalog());
  OptimizerReport report;
  ASSERT_OK_AND_ASSIGN(PlanNodePtr optimized,
                       optimizer.Optimize(*parsed, &report));
  ASSERT_GE(report.joins_swapped, 1);
  ASSERT_TRUE(optimized->child(0).join_swapped) << optimized->ToString();

  // The optimized plan prints as the query's own joins, so the text parses
  // back to the same schema and rows.
  ASSERT_OK_AND_ASSIGN(std::string printed, PlanToRaql(*optimized));
  ASSERT_OK_AND_ASSIGN(std::string as_written, PlanToRaql(*parsed));
  EXPECT_EQ(printed, as_written);
  ASSERT_OK_AND_ASSIGN(PlanNodePtr reparsed, ParseQuery(printed));
  ReferenceExecutor reference(&storage);
  ASSERT_OK_AND_ASSIGN(QueryResult expected, reference.Execute(*parsed));
  ASSERT_OK_AND_ASSIGN(QueryResult from_optimized,
                       reference.Execute(*optimized));
  ASSERT_OK_AND_ASSIGN(QueryResult from_text, reference.Execute(*reparsed));
  EXPECT_EQ(from_optimized.schema(), expected.schema());
  EXPECT_EQ(from_text.schema(), expected.schema());
  testing::ExpectSameResult(expected, from_optimized);
  testing::ExpectSameResult(expected, from_text);
  EXPECT_GT(expected.num_tuples(), 0u);
}

}  // namespace
}  // namespace dfdb
