/// \file optimizer_test.cc
/// \brief Tests for the heuristic optimizer: rewrites preserve semantics
/// (checked against the reference executor) and fire when expected.

#include "ra/optimizer.h"

#include <gtest/gtest.h>

#include "engine/run.h"
#include "engine/reference.h"
#include "ra/analyzer.h"
#include "tests/test_util.h"
#include "workload/generator.h"
#include "workload/paper_benchmark.h"

namespace dfdb {
namespace {

using ::dfdb::testing::ExpectSameResult;

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = std::make_unique<StorageEngine>(1000);
    ASSERT_OK_AND_ASSIGN(auto big,
                         GenerateRelation(storage_.get(), "big", 800, 1));
    ASSERT_OK_AND_ASSIGN(auto small,
                         GenerateRelation(storage_.get(), "small", 100, 2));
    (void)big;
    (void)small;
  }

  /// Optimizes and verifies identical results via the reference executor.
  PlanNodePtr OptimizeChecked(const PlanNodePtr& plan,
                              OptimizerReport* report) {
    Optimizer optimizer(&storage_->catalog());
    auto optimized = optimizer.Optimize(*plan, report);
    EXPECT_TRUE(optimized.ok()) << optimized.status();
    ReferenceExecutor reference(storage_.get());
    auto before = reference.Execute(*plan);
    auto after = reference.Execute(**optimized);
    EXPECT_TRUE(before.ok() && after.ok());
    if (before.ok() && after.ok()) ExpectSameResult(*before, *after);
    return *std::move(optimized);
  }

  std::unique_ptr<StorageEngine> storage_;
};

TEST_F(OptimizerTest, MergesAdjacentRestricts) {
  auto plan = MakeRestrict(
      MakeRestrict(MakeScan("big"), Lt(Col("k1000"), Lit(500))),
      Eq(Col("k2"), Lit(1)));
  OptimizerReport report;
  PlanNodePtr optimized = OptimizeChecked(plan, &report);
  EXPECT_EQ(report.restricts_merged, 1);
  // Two restricts became one over the scan.
  EXPECT_EQ(optimized->op, PlanOp::kRestrict);
  EXPECT_EQ(optimized->child(0).op, PlanOp::kScan);
}

TEST_F(OptimizerTest, PushesRestrictThroughUnion) {
  auto plan = MakeRestrict(MakeUnion(MakeScan("big"), MakeScan("small"),
                                     /*bag=*/true),
                           Lt(Col("k1000"), Lit(300)));
  OptimizerReport report;
  PlanNodePtr optimized = OptimizeChecked(plan, &report);
  EXPECT_GE(report.predicates_pushed, 2);
  EXPECT_EQ(optimized->op, PlanOp::kUnion);
  EXPECT_EQ(optimized->child(0).op, PlanOp::kRestrict);
  EXPECT_EQ(optimized->child(1).op, PlanOp::kRestrict);
}

TEST_F(OptimizerTest, PushesRestrictThroughProject) {
  auto plan = MakeRestrict(MakeProject(MakeScan("big"), {"k100", "k1000"}),
                           Lt(Col("k1000"), Lit(200)));
  OptimizerReport report;
  PlanNodePtr optimized = OptimizeChecked(plan, &report);
  EXPECT_GE(report.predicates_pushed, 1);
  EXPECT_EQ(optimized->op, PlanOp::kProject);
  EXPECT_EQ(optimized->child(0).op, PlanOp::kRestrict);
}

TEST_F(OptimizerTest, PushesLeftConjunctsIntoJoin) {
  auto plan = MakeRestrict(
      MakeJoin(MakeScan("big"), MakeScan("small"),
               Eq(Col("k100"), RightCol("k100"))),
      And(Lt(Col("k1000"), Lit(100)),      // Left-only: pushable.
          Gt(Col("k1000_r"), Lit(50))));   // Right-renamed: stays.
  OptimizerReport report;
  PlanNodePtr optimized = OptimizeChecked(plan, &report);
  EXPECT_GE(report.predicates_pushed, 1);
  // The top restrict remains (the k1000_r conjunct), but the left join
  // input gained a restrict.
  const PlanNode* join = optimized.get();
  while (join->op != PlanOp::kJoin) join = &join->child(0);
  bool left_has_restrict = false;
  const PlanNode* l = &join->child(0);
  while (l->op == PlanOp::kRestrict) {
    left_has_restrict = true;
    l = &l->child(0);
  }
  EXPECT_TRUE(left_has_restrict);
}

TEST_F(OptimizerTest, SwapsJoinToPutSmallerInner) {
  // small JOIN big should become big JOIN small (bigger outer).
  auto plan = MakeJoin(MakeScan("small"), MakeScan("big"),
                       Eq(Col("k100"), RightCol("k100")));
  OptimizerReport report;
  PlanNodePtr optimized = OptimizeChecked(plan, &report);
  EXPECT_EQ(report.joins_swapped, 1);
  // The swap is wrapped in a schema-restoring projection.
  ASSERT_EQ(optimized->op, PlanOp::kProject);
  const PlanNode& join = optimized->child(0);
  EXPECT_EQ(join.child(0).relation, "big");
  EXPECT_EQ(join.child(1).relation, "small");
  // The public schema is unchanged.
  auto original = plan->Clone();
  Analyzer analyzer(&storage_->catalog());
  ASSERT_OK_AND_ASSIGN(auto a, analyzer.Resolve(original.get()));
  (void)a;
  EXPECT_EQ(optimized->output_schema, original->output_schema);
  // Already-good order is left alone.
  auto good = MakeJoin(MakeScan("big"), MakeScan("small"),
                       Eq(Col("k100"), RightCol("k100")));
  OptimizerReport report2;
  PlanNodePtr unchanged = OptimizeChecked(good, &report2);
  EXPECT_EQ(report2.joins_swapped, 0);
  EXPECT_EQ(unchanged->child(0).relation, "big");
}

TEST_F(OptimizerTest, SelectivityUsesUniformDomains) {
  Optimizer optimizer(&storage_->catalog());
  Schema schema = BenchmarkSchema();
  EXPECT_NEAR(optimizer.EstimateSelectivity(*Lt(Col("k1000"), Lit(250)),
                                            schema),
              0.25, 1e-9);
  EXPECT_NEAR(optimizer.EstimateSelectivity(*Eq(Col("k100"), Lit(7)), schema),
              0.01, 1e-9);
  EXPECT_NEAR(optimizer.EstimateSelectivity(*Ge(Col("k10"), Lit(4)), schema),
              0.6, 1e-9);
  EXPECT_NEAR(
      optimizer.EstimateSelectivity(
          *And(Lt(Col("k10"), Lit(5)), Lt(Col("k100"), Lit(50))), schema),
      0.25, 1e-9);
  EXPECT_NEAR(optimizer.EstimateSelectivity(*Not(Lt(Col("k10"), Lit(2))),
                                            schema),
              0.8, 1e-9);
}

TEST_F(OptimizerTest, EstimateRowsFollowsStats) {
  Optimizer optimizer(&storage_->catalog());
  Analyzer analyzer(&storage_->catalog());
  auto scan = MakeScan("big");
  ASSERT_OK_AND_ASSIGN(auto a1, analyzer.Resolve(scan.get()));
  (void)a1;
  EXPECT_DOUBLE_EQ(optimizer.EstimateRows(*scan), 800.0);
  auto restricted =
      MakeRestrict(MakeScan("big"), Lt(Col("k1000"), Lit(100)));
  ASSERT_OK_AND_ASSIGN(auto a2, analyzer.Resolve(restricted.get()));
  (void)a2;
  EXPECT_NEAR(optimizer.EstimateRows(*restricted), 80.0, 1e-6);
  auto join = MakeJoin(MakeScan("big"), MakeScan("small"),
                       Eq(Col("k100"), RightCol("k100")));
  ASSERT_OK_AND_ASSIGN(auto a3, analyzer.Resolve(join.get()));
  (void)a3;
  EXPECT_NEAR(optimizer.EstimateRows(*join), 800.0 * 100.0 / 100.0, 1e-6);
}

TEST_F(OptimizerTest, ComplexTreeStaysCorrectOnEngine) {
  // A messy tree exercising several rules at once, verified end to end on
  // the dataflow engine.
  auto plan = MakeRestrict(
      MakeRestrict(
          MakeJoin(MakeScan("small"),
                   MakeRestrict(MakeScan("big"), Lt(Col("k1000"), Lit(400))),
                   Eq(Col("k100"), RightCol("k100"))),
          Lt(Col("k1000"), Lit(800))),
      Eq(Col("k2"), Lit(0)));
  Optimizer optimizer(&storage_->catalog());
  OptimizerReport report;
  ASSERT_OK_AND_ASSIGN(PlanNodePtr optimized,
                       optimizer.Optimize(*plan, &report));
  EXPECT_GT(report.restricts_merged + report.predicates_pushed +
                report.joins_swapped,
            0);
  ExecOptions opts;
  opts.num_processors = 4;
  opts.page_bytes = 1000;
  ASSERT_OK_AND_ASSIGN(QueryResult before,
                       RunQuery(storage_.get(), *plan, opts));
  ASSERT_OK_AND_ASSIGN(QueryResult after,
                       RunQuery(storage_.get(), *optimized, opts));
  ExpectSameResult(before, after);
}

TEST_F(OptimizerTest, PushThroughAliasedProjectRenamesCorrectly) {
  // A restrict above a projection with aliases (as the join-swap rule
  // produces) must be rewritten against the pre-projection names.
  auto proj = MakeProject(MakeScan("big"), {"k1000", "k100"});
  proj->project_aliases = {"thousand", "hundred"};
  auto plan = MakeRestrict(std::move(proj), Lt(Col("thousand"), Lit(200)));
  OptimizerReport report;
  PlanNodePtr optimized = OptimizeChecked(plan, &report);
  EXPECT_GE(report.predicates_pushed, 1);
  ASSERT_EQ(optimized->op, PlanOp::kProject);
  EXPECT_EQ(optimized->child(0).op, PlanOp::kRestrict);
  // The pushed predicate speaks the base schema's language.
  EXPECT_EQ(optimized->child(0).predicate->ToString(), "(k1000 < 200)");
  // The public schema still uses the aliases.
  ASSERT_OK_AND_ASSIGN(int idx, optimized->output_schema.ColumnIndex("thousand"));
  EXPECT_EQ(idx, 0);
}

TEST_F(OptimizerTest, PaperBenchmarkUnchangedSemantics) {
  // Optimizing all ten paper queries must not change any result.
  StorageEngine paper_storage(4096);
  ASSERT_OK_AND_ASSIGN(int64_t bytes,
                       BuildPaperDatabase(&paper_storage, 0.05, 42));
  (void)bytes;
  Optimizer optimizer(&paper_storage.catalog());
  ReferenceExecutor reference(&paper_storage);
  int total_rewrites = 0;
  for (const Query& q : MakePaperBenchmarkQueries()) {
    OptimizerReport report;
    ASSERT_OK_AND_ASSIGN(PlanNodePtr optimized,
                         optimizer.Optimize(*q.root, &report));
    total_rewrites += report.restricts_merged + report.predicates_pushed +
                      report.joins_swapped;
    ASSERT_OK_AND_ASSIGN(QueryResult before, reference.Execute(*q.root));
    ASSERT_OK_AND_ASSIGN(QueryResult after, reference.Execute(*optimized));
    SCOPED_TRACE(q.name);
    ExpectSameResult(before, after);
  }
  // The benchmark's trees are already well-shaped; some joins still get
  // reordered by the estimates.
  EXPECT_GE(total_rewrites, 0);
}

TEST_F(OptimizerTest, ReportToString) {
  OptimizerReport r;
  r.restricts_merged = 1;
  r.predicates_pushed = 2;
  r.joins_swapped = 3;
  r.edges_fused = 4;
  r.edges_materialized = 5;
  r.scans_full = 6;
  r.scans_zonemap = 7;
  r.scans_gridfile = 8;
  r.scans_pushdown = 9;
  EXPECT_EQ(r.ToString(),
            "merged=1 pushed=2 swapped=3 fused=4 materialized=5 "
            "scans(full=6 zonemap=7 gridfile=8) pushdown=9");
}

// ---------------------------------------------------------------------------
// Per-edge pipeline decisions (DecidePipelining)
// ---------------------------------------------------------------------------

TEST_F(OptimizerTest, MarksSelectiveRestrictIntoJoinFused) {
  // restrict(big) -> join: low selectivity, modest join fanout -> fuse.
  auto plan = MakeJoin(
      MakeRestrict(MakeScan("big"), Lt(Col("k1000"), Lit(100))),
      MakeScan("small"), Eq(Col("k100"), RightCol("k100")));
  OptimizerReport report;
  PlanNodePtr optimized = OptimizeChecked(plan, &report);
  EXPECT_GE(report.edges_fused, 1) << report.ToString();
  // The restrict feeding the join carries the mark.
  const PlanNode* join = optimized.get();
  while (join->op != PlanOp::kJoin) join = &join->child(0);
  bool any_marked = false;
  for (int i = 0; i < join->num_children(); ++i) {
    if (join->child(i).op == PlanOp::kRestrict &&
        join->child(i).pipeline_fused) {
      any_marked = true;
    }
  }
  EXPECT_TRUE(any_marked);
}

TEST_F(OptimizerTest, HighFanoutJoinInputStaysMaterialized) {
  // Joining big with itself on k2 has fanout rows/2 = 400, far above
  // kPipelineFanoutLimit: the stats veto must keep the edge materialized.
  auto plan = MakeJoin(
      MakeRestrict(MakeScan("big"), Lt(Col("k1000"), Lit(900))),
      MakeScan("big"), Eq(Col("k2"), RightCol("k2")));
  Optimizer optimizer(&storage_->catalog());
  OptimizerReport report;
  ASSERT_OK_AND_ASSIGN(PlanNodePtr optimized,
                       optimizer.Optimize(*plan, &report));
  EXPECT_EQ(report.edges_fused, 0) << report.ToString();
  EXPECT_GE(report.fallback_high_fanout, 1) << report.ToString();
  const PlanNode* join = optimized.get();
  while (join->op != PlanOp::kJoin) join = &join->child(0);
  for (int i = 0; i < join->num_children(); ++i) {
    EXPECT_FALSE(join->child(i).pipeline_fused);
  }
}

TEST_F(OptimizerTest, DedupProjectConsumerIsNotFusable) {
  // restrict -> dedup project: the project is a barrier (hash state), so
  // the edge below it must stay materialized with an unsupported-consumer
  // fallback.
  auto plan = MakeProject(
      MakeRestrict(MakeScan("big"), Lt(Col("k1000"), Lit(100))), {"k100"});
  plan->dedup = true;
  Optimizer optimizer(&storage_->catalog());
  OptimizerReport report;
  ASSERT_OK_AND_ASSIGN(PlanNodePtr optimized,
                       optimizer.Optimize(*plan, &report));
  (void)optimized;
  EXPECT_EQ(report.edges_fused, 0) << report.ToString();
  EXPECT_GE(report.fallback_unsupported_consumer, 1) << report.ToString();
}

TEST_F(OptimizerTest, RestrictChainIntoJoinFusesEveryEdge) {
  // restrict(restrict(big)) -> join: with merging disabled by distinct
  // columns... the merge rule will collapse them first, so build the chain
  // as restrict -> project -> join instead: both unary edges can fuse.
  auto plan = MakeJoin(
      MakeProject(MakeRestrict(MakeScan("big"), Lt(Col("k1000"), Lit(50))),
                  {"k100", "k1000"}),
      MakeScan("small"), Eq(Col("k100"), RightCol("k100")));
  OptimizerReport report;
  PlanNodePtr optimized = OptimizeChecked(plan, &report);
  EXPECT_GE(report.edges_fused, 2) << report.ToString();
  (void)optimized;
}

TEST_F(OptimizerTest, RestrictUnderRefusedRestrictIsMarkedFused) {
  // Only the producer's predicate must compile (the simulator folds a
  // compilable restrict alone). The consumer runs its own program on the
  // pages handed to it, interpreted when the compiler refuses it, as
  // division is. DecidePipelining runs on its own because Optimize()
  // would merge the two restricts first.
  auto plan = MakeRestrict(
      MakeRestrict(MakeScan("big"), Lt(Col("k10"), Lit(5))),
      Lt(Div(Col("k1000"), Lit(3)), Lit(100)));
  Analyzer analyzer(&storage_->catalog());
  ASSERT_TRUE(analyzer.Resolve(plan.get()).ok());
  Optimizer optimizer(&storage_->catalog());
  OptimizerReport report;
  optimizer.DecidePipelining(plan.get(), &report);
  EXPECT_TRUE(plan->child(0).pipeline_fused) << report.ToString();
  EXPECT_EQ(report.edges_fused, 1) << report.ToString();
  EXPECT_EQ(report.fallback_predicate_not_compiled, 0) << report.ToString();

  // The engine hands the producer's pages over live, and the refused
  // predicate still filters them.
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(QueryResult fused,
                       RunQuery(storage_.get(), *plan, ExecOptions{}, &stats));
  EXPECT_EQ(stats.pipeline_fused_edges, 1u);
  EXPECT_EQ(stats.kernel.compile_fallbacks, 1u);
  ReferenceExecutor reference(storage_.get());
  ASSERT_OK_AND_ASSIGN(QueryResult want, reference.Execute(*plan));
  EXPECT_GT(want.num_tuples(), 0u);
  ExpectSameResult(want, fused);
}

// ---------------------------------------------------------------------------
// Execution-time policies (ApplyPlanPolicies)
// ---------------------------------------------------------------------------

/// How many nodes of a tree carry each optimizer mark.
struct MarkCounts {
  int fused = 0;
  int access_paths = 0;
  int pushdown = 0;
  bool operator==(const MarkCounts&) const = default;
};

MarkCounts CountMarks(const PlanNode& n) {
  MarkCounts c;
  c.fused = n.pipeline_fused ? 1 : 0;
  c.access_paths = n.access_path != ScanAccessPath::kFullScan ? 1 : 0;
  c.pushdown = n.pushdown ? 1 : 0;
  for (int i = 0; i < n.num_children(); ++i) {
    const MarkCounts sub = CountMarks(n.child(i));
    c.fused += sub.fused;
    c.access_paths += sub.access_paths;
    c.pushdown += sub.pushdown;
  }
  return c;
}

TEST_F(OptimizerTest, EachPolicyClearsOnlyItsOwnMarks) {
  // restrict(big) -> join carries all three marks: a fused edge, and a
  // zone-map access path plus pushdown on the scan below the restrict.
  auto plan = MakeJoin(
      MakeRestrict(MakeScan("big"), Lt(Col("k1000"), Lit(100))),
      MakeScan("small"), Eq(Col("k100"), RightCol("k100")));
  OptimizerReport report;
  PlanNodePtr optimized = OptimizeChecked(plan, &report);
  const MarkCounts marked = CountMarks(*optimized);
  ASSERT_GE(marked.fused, 1) << report.ToString();
  ASSERT_GE(marked.access_paths, 1) << report.ToString();
  ASSERT_GE(marked.pushdown, 1) << report.ToString();

  auto apply = [&](const PlanPolicies& policies) {
    PlanNodePtr clone = optimized->Clone();
    ApplyPlanPolicies(policies, clone.get());
    return CountMarks(*clone);
  };
  EXPECT_EQ(apply(PlanPolicies{}), marked);
  PlanPolicies materialize;
  materialize.pipeline = PipelinePolicy::kForceMaterialize;
  EXPECT_EQ(apply(materialize),
            (MarkCounts{0, marked.access_paths, marked.pushdown}));
  PlanPolicies full_scan;
  full_scan.index = IndexPolicy::kForceFullScan;
  EXPECT_EQ(apply(full_scan), (MarkCounts{marked.fused, 0, marked.pushdown}));
  PlanPolicies raw;
  raw.pushdown = PushdownPolicy::kForceOff;
  EXPECT_EQ(apply(raw), (MarkCounts{marked.fused, marked.access_paths, 0}));
}

}  // namespace
}  // namespace dfdb
