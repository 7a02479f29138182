/// \file optimizer_test.cc
/// \brief Tests for the heuristic optimizer: rewrites preserve semantics
/// (checked against the reference executor) and fire when expected.

#include "ra/optimizer.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "engine/run.h"
#include "engine/reference.h"
#include "machine/simulator.h"
#include "ra/analyzer.h"
#include "tests/test_util.h"
#include "workload/generator.h"
#include "workload/paper_benchmark.h"

namespace dfdb {
namespace {

using ::dfdb::testing::ExpectSameResult;
using ::dfdb::testing::ResultMultiset;

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
          Gt(Col("k1000_r"), Lit(50))));   // Right-only: pushed as k1000.
  OptimizerReport report;
  PlanNodePtr optimized = OptimizeChecked(plan, &report);
  EXPECT_GE(report.predicates_pushed, 1);
  // Each conjunct moves onto the input it reads (the k1000_r one onto the
  // right input, renamed k1000); the left join input gained a restrict.
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
  // The join itself is marked swapped; no projection restores the order.
  ASSERT_EQ(optimized->op, PlanOp::kJoin);
  EXPECT_TRUE(optimized->join_swapped);
  EXPECT_EQ(optimized->child(0).relation, "big");
  EXPECT_EQ(optimized->child(1).relation, "small");
  EXPECT_EQ(optimized->predicate->ToString(), "(right.k100 = k100)");
  EXPECT_NE(optimized->ToString().find("Join [(right.k100 = k100)] swapped"),
            std::string::npos)
      << optimized->ToString();
  // The join_* accessors give back the join as written.
  EXPECT_EQ(optimized->join_left().relation, "small");
  EXPECT_EQ(optimized->join_right().relation, "big");
  EXPECT_EQ(optimized->join_predicate()->ToString(), "(k100 = right.k100)");
  EXPECT_EQ(optimized->join_emit(), JoinEmit::kInnerOuter);
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
  EXPECT_FALSE(unchanged->join_swapped);
  EXPECT_EQ(unchanged->child(0).relation, "big");
  EXPECT_EQ(&unchanged->join_left(), &unchanged->child(0));
  EXPECT_EQ(unchanged->join_predicate(), unchanged->predicate);
  EXPECT_EQ(unchanged->join_emit(), JoinEmit::kOuterInner);
}

TEST_F(OptimizerTest, EquiKeysOfASwappedJoinNameTheQuerysSides) {
  // Only the query's right input has k1000, so reading the key against the
  // children in their swapped order would drop it.
  auto plan = MakeJoin(MakeProject(MakeScan("small"), {"k100"}),
                       MakeScan("big"), Eq(Col("k100"), RightCol("k1000")));
  PlanNodePtr optimized = OptimizeChecked(plan, nullptr);
  ASSERT_TRUE(optimized->join_swapped);
  const std::vector<EquiJoinKey> keys = ExtractEquiJoinKeys(*optimized);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].left_column, "k100");
  EXPECT_EQ(keys[0].right_column, "k1000");
}

TEST_F(OptimizerTest, SwappingASwappedJoinClearsTheMark) {
  // A swapped join whose inputs the estimates would trade back: the
  // second swap restores the plain join over the same logical schema.
  auto plan = MakeJoin(MakeScan("small"), MakeScan("big"),
                       Eq(Col("k100"), RightCol("k1000")));
  plan->join_swapped = true;
  auto original = plan->Clone();
  Analyzer analyzer(&storage_->catalog());
  ASSERT_OK_AND_ASSIGN(auto a, analyzer.Resolve(original.get()));
  (void)a;
  // Logically this is big JOIN small on big.k1000 = small.k100.
  EXPECT_EQ(original->output_schema.column(0).name, "id");
  ASSERT_OK_AND_ASSIGN(int k100_r,
                       original->output_schema.ColumnIndex("k100_r"));
  EXPECT_EQ(k100_r, BenchmarkSchema().num_columns() + 6);

  OptimizerReport report;
  PlanNodePtr optimized = OptimizeChecked(plan, &report);
  EXPECT_EQ(report.joins_swapped, 1);
  ASSERT_EQ(optimized->op, PlanOp::kJoin);
  EXPECT_FALSE(optimized->join_swapped);
  EXPECT_EQ(optimized->child(0).relation, "big");
  EXPECT_EQ(optimized->child(1).relation, "small");
  EXPECT_EQ(optimized->predicate->ToString(), "(right.k100 = k1000)");
  EXPECT_EQ(optimized->output_schema, original->output_schema);
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

TEST_F(OptimizerTest, RestrictOnSwappedJoinRightColumnMovesOntoThatInput) {
  // small JOIN big is swapped to big JOIN small. A conjunct on big's
  // k1000 (k1000_r in the join's output) moves onto big under big's own
  // name; one on small's k2 moves onto small.
  auto plan = MakeRestrict(
      MakeJoin(MakeScan("small"), MakeScan("big"),
               Eq(Col("k100"), RightCol("k100"))),
      And(Lt(Col("k1000_r"), Lit(200)), Eq(Col("k2"), Lit(0))));
  OptimizerReport report;
  PlanNodePtr optimized = OptimizeChecked(plan, &report);
  EXPECT_EQ(report.joins_swapped, 1);
  EXPECT_EQ(report.predicates_pushed, 2);
  // The whole restrict moved, so the swapped join is the root.
  ASSERT_EQ(optimized->op, PlanOp::kJoin);
  EXPECT_TRUE(optimized->join_swapped);
  const PlanNode& outer = optimized->child(0);
  ASSERT_EQ(outer.op, PlanOp::kRestrict);
  EXPECT_EQ(outer.child(0).relation, "big");
  EXPECT_EQ(outer.predicate->ToString(), "(k1000 < 200)");
  const PlanNode& inner = optimized->child(1);
  ASSERT_EQ(inner.op, PlanOp::kRestrict);
  EXPECT_EQ(inner.child(0).relation, "small");
  EXPECT_EQ(inner.predicate->ToString(), "(k2 = 0)");
}

TEST_F(OptimizerTest, ConjunctSpanningBothJoinInputsStaysAbove) {
  auto plan = MakeRestrict(
      MakeJoin(MakeScan("small"), MakeScan("big"),
               Eq(Col("k100"), RightCol("k100"))),
      Lt(Col("k1000"), Col("k1000_r")));
  OptimizerReport report;
  PlanNodePtr optimized = OptimizeChecked(plan, &report);
  EXPECT_EQ(report.joins_swapped, 1);
  EXPECT_EQ(report.predicates_pushed, 0);
  ASSERT_EQ(optimized->op, PlanOp::kRestrict);
  EXPECT_EQ(optimized->predicate->ToString(), "(k1000 < k1000_r)");
  const PlanNode& join = optimized->child(0);
  ASSERT_EQ(join.op, PlanOp::kJoin);
  EXPECT_TRUE(join.join_swapped);
  EXPECT_EQ(join.child(0).op, PlanOp::kScan);
  EXPECT_EQ(join.child(1).op, PlanOp::kScan);
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
// Swapped joins on both backends
// ---------------------------------------------------------------------------

/// Runs \p optimized on the engine (1 and 4 workers, page and relation
/// granularity) and on the simulator, and checks each against \p expected,
/// the reference executor's result for the query as written: the same
/// schema and the same rows as a multiset.
void ExpectBackendsMatch(StorageEngine* storage, const PlanNode& optimized,
                         const QueryResult& expected, int page_bytes) {
  const std::vector<std::string> want = ResultMultiset(expected);
  for (Granularity g : {Granularity::kPage, Granularity::kRelation}) {
    for (int workers : {1, 4}) {
      SCOPED_TRACE(StrFormat("engine %s p=%d",
                             std::string(GranularityToString(g)).c_str(),
                             workers));
      ExecOptions opts;
      opts.granularity = g;
      opts.num_processors = workers;
      opts.page_bytes = page_bytes;
      auto got = RunQuery(storage, optimized, opts);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->schema(), expected.schema());
      EXPECT_EQ(ResultMultiset(*got), want);
    }
  }
  SCOPED_TRACE("simulator");
  MachineOptions mopts;
  mopts.config.num_instruction_processors = 4;
  mopts.config.page_bytes = page_bytes;
  MachineSimulator sim(storage, mopts);
  auto report = sim.Run({&optimized});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->results[0].schema(), expected.schema());
  EXPECT_EQ(ResultMultiset(report->results[0]), want);
}

/// Depth of every swapped join under \p node (the root is depth 0).
void SwapDepths(const PlanNode& node, int depth, std::vector<int>* out) {
  if (node.join_swapped) out->push_back(depth);
  for (const auto& c : node.children) SwapDepths(*c, depth + 1, out);
}

/// Seeded random join trees of 3 to 5 inputs over relations of varied
/// sizes, so that the optimizer swaps joins at several depths. Each join's
/// key is the smallest domain that keeps its estimated output within a few
/// hundred rows, so most trees return rows without exploding. Predicates
/// are one equi-key, two keys, or a key plus a non-equi residual; some
/// joins carry a restrict whose conjuncts read one input, the other, or
/// both. A third of the leaves project a reordered subset of the columns:
/// every relation has the same schema, and without them a swapped join's
/// inputs would concatenate to the same names and types in either order.
class JoinTreeFuzzer {
 public:
  JoinTreeFuzzer(Random* rng, const Catalog* catalog)
      : rng_(rng), catalog_(catalog), analyzer_(catalog) {}

  PlanNodePtr Generate() {
    double rows = 0;
    return Tree(3 + static_cast<int>(rng_->Uniform(3)), &rows);
  }

 private:
  PlanNodePtr Leaf(double* rows) {
    const std::vector<std::string> names = catalog_->ListRelations();
    const std::string& name = names[rng_->Uniform(names.size())];
    auto meta = catalog_->GetRelation(name);
    EXPECT_TRUE(meta.ok()) << meta.status();
    *rows = static_cast<double>(meta->tuple_count);
    PlanNodePtr leaf = MakeScan(name);
    if (rng_->Bernoulli(0.5)) {
      const int32_t bound = static_cast<int32_t>(300 + rng_->Uniform(700));
      *rows *= bound / 1000.0;
      leaf = MakeRestrict(std::move(leaf), Lt(Col("k1000"), Lit(bound)));
    }
    if (rng_->Uniform(3) == 0) {
      leaf = MakeProject(std::move(leaf),
                         {"k1000", "k100", "k25", "k10", "k5", "k2", "val"});
    }
    return leaf;
  }

  PlanNodePtr Tree(int inputs, double* rows) {
    if (inputs == 1) return Leaf(rows);
    const int left_inputs = 1 + static_cast<int>(rng_->Uniform(
                                    static_cast<uint64_t>(inputs - 1)));
    double lrows = 0, rrows = 0;
    PlanNodePtr left = Tree(left_inputs, &lrows);
    PlanNodePtr right = Tree(inputs - left_inputs, &rrows);
    const Schema ls = SchemaOf(*left);
    const Schema rs = SchemaOf(*right);
    // The smallest key domain that keeps the output near kMaxRows.
    static const struct {
      const char* column;
      double domain;
    } kKeys[] = {{"k10", 10}, {"k25", 25}, {"k100", 100}, {"k1000", 1000}};
    constexpr double kMaxRows = 300;
    size_t k = 0;
    while (k + 1 < std::size(kKeys) &&
           lrows * rrows / kKeys[k].domain > kMaxRows) {
      ++k;
    }
    ExprPtr pred = KeyEq(ls, rs, kKeys[k].column);
    *rows = lrows * rrows / kKeys[k].domain;
    switch (rng_->Uniform(4)) {
      case 0:  // Two keys: k25 holds a fifth of the time beside k10 or k100.
        if (k < 2) {
          pred = And(pred, KeyEq(ls, rs, "k5"));
          *rows /= 5;
        }
        break;
      case 1:  // A non-equi residual beside the key.
        pred = And(pred, Le(Col(Pick(ls, "k2")), RightCol(Pick(rs, "k2"))));
        *rows *= 0.75;
        break;
      default:
        break;
    }
    *rows = std::max(*rows, 1.0);
    PlanNodePtr join = MakeJoin(std::move(left), std::move(right), pred);
    if (!rng_->Bernoulli(0.3)) return join;
    // A restrict above the join, over the join's own output names.
    const Schema out = ls.Concat(rs);
    const std::string l = out.column(ls.ColumnIndex(Pick(ls, "k10")).value())
                              .name;
    const std::string r =
        out.column(ls.num_columns() + rs.ColumnIndex(Pick(rs, "k10")).value())
            .name;
    const int32_t cut = static_cast<int32_t>(4 + rng_->Uniform(6));
    ExprPtr filter;
    switch (rng_->Uniform(3)) {
      case 0:
        filter = And(Lt(Col(l), Lit(cut)), Ge(Col(r), Lit(cut - 4)));
        break;
      case 1:
        filter = Lt(Col(r), Lit(cut));
        break;
      default:
        filter = And(Le(Col(l), Col(r)), Lt(Col(l), Lit(cut)));
        break;
    }
    *rows = std::max(*rows * 0.5, 1.0);
    return MakeRestrict(std::move(join), filter);
  }

  Schema SchemaOf(const PlanNode& node) {
    PlanNodePtr copy = node.Clone();
    auto resolved = analyzer_.Resolve(copy.get());
    EXPECT_TRUE(resolved.ok()) << resolved.status();
    return copy->output_schema;
  }

  /// A column of \p schema carrying \p base, perhaps with "_r" suffixes.
  std::string Pick(const Schema& schema, const std::string& base) {
    std::vector<std::string> names;
    for (const Column& c : schema.columns()) {
      std::string stem = c.name;
      while (stem.size() > 2 && stem.compare(stem.size() - 2, 2, "_r") == 0) {
        stem.resize(stem.size() - 2);
      }
      if (stem == base) names.push_back(c.name);
    }
    return names[rng_->Uniform(names.size())];
  }

  ExprPtr KeyEq(const Schema& left, const Schema& right,
                const std::string& base) {
    return Eq(Col(Pick(left, base)), RightCol(Pick(right, base)));
  }

  Random* rng_;
  const Catalog* catalog_;
  Analyzer analyzer_;
};

TEST(SwappedJoinDifferential, RandomJoinTreesAgreeWithReference) {
  StorageEngine storage(1000);
  for (const auto& [name, rows] : {std::pair<const char*, uint64_t>{"t10", 10},
                                   {"t30", 30},
                                   {"t70", 70},
                                   {"t150", 150},
                                   {"t320", 320}}) {
    ASSERT_OK_AND_ASSIGN(auto id, GenerateRelation(&storage, name, rows, 17));
    (void)id;
  }
  Random rng(23);
  JoinTreeFuzzer fuzzer(&rng, &storage.catalog());
  Optimizer optimizer(&storage.catalog());
  ReferenceExecutor reference(&storage);
  std::vector<int> depths;
  int nonempty = 0;
  constexpr int kTrees = 200;
  for (int t = 0; t < kTrees; ++t) {
    PlanNodePtr plan = fuzzer.Generate();
    SCOPED_TRACE(StrFormat("tree %d:\n%s", t, plan->ToString().c_str()));
    ASSERT_OK_AND_ASSIGN(QueryResult expected, reference.Execute(*plan));
    ASSERT_OK_AND_ASSIGN(PlanNodePtr optimized, optimizer.Optimize(*plan));
    SCOPED_TRACE("optimized:\n" + optimized->ToString());
    SwapDepths(*optimized, 0, &depths);
    if (expected.num_tuples() > 0) ++nonempty;
    ExpectBackendsMatch(&storage, *optimized, expected, /*page_bytes=*/1024);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Swaps land at the root and below it, and most trees return rows.
  std::sort(depths.begin(), depths.end());
  EXPECT_GE(depths.size(), static_cast<size_t>(kTrees));
  EXPECT_GE(std::unique(depths.begin(), depths.end()) - depths.begin(), 3);
  EXPECT_GE(nonempty, kTrees * 3 / 4);
}

TEST(SwappedJoinDifferential, OptimizedPaperQueriesAgreeWithReference) {
  StorageEngine storage(4096);
  ASSERT_OK_AND_ASSIGN(int64_t bytes, BuildPaperDatabase(&storage, 0.5, 42));
  (void)bytes;
  Optimizer optimizer(&storage.catalog());
  ReferenceExecutor reference(&storage);
  int swaps = 0;
  for (const Query& q : MakePaperBenchmarkQueries()) {
    SCOPED_TRACE(q.name);
    OptimizerReport report;
    ASSERT_OK_AND_ASSIGN(PlanNodePtr optimized,
                         optimizer.Optimize(*q.root, &report));
    swaps += report.joins_swapped;
    ASSERT_OK_AND_ASSIGN(QueryResult expected, reference.Execute(*q.root));
    ExpectBackendsMatch(&storage, *optimized, expected, /*page_bytes=*/4096);
  }
  EXPECT_GT(swaps, 0);
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
