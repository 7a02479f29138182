/// \file pipeline_fusion_test.cc
/// \brief Differential tests locking down pipelined operator fusion.
///
/// Two layers, mirroring expr_compile_test's compiled-vs-interpreted
/// contract one level up:
///
///  1. engine — seeded random plans with every PipelineEdgeSafe edge marked
///     must produce byte-identical pages, boundaries and order as
///     kForceMaterialize (the pre-fusion baseline) on a single worker;
///  2. simulator — folded restricts must leave every query's result bag
///     unchanged while eliding instruction traffic, and the ten-query mix's
///     pipeline counters must export byte-identical JSON across runs.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/run.h"
#include "machine/simulator.h"
#include "ra/analyzer.h"
#include "ra/optimizer.h"
#include "tests/test_util.h"
#include "workload/generator.h"
#include "workload/paper_benchmark.h"

namespace dfdb {
namespace {

using ::dfdb::testing::ExpectSameResult;
using ::dfdb::testing::ResultMultiset;

// ---------------------------------------------------------------------------
// Engine level: every safe edge fused vs kForceMaterialize, byte-identical
// ---------------------------------------------------------------------------

void MarkSafeEdges(PlanNode* node) {
  for (auto& child : node->children) {
    MarkSafeEdges(child.get());
    child->pipeline_fused =
        child->op != PlanOp::kScan && PipelineEdgeSafe(*child, *node);
  }
}

/// A resolved clone of \p plan with every edge PipelineEdgeSafe accepts
/// marked fused: fusion wherever it is provably safe, no stats veto.
PlanNodePtr MarkEverySafeEdge(const Catalog& catalog, const PlanNode& plan) {
  PlanNodePtr marked = plan.Clone();
  Analyzer analyzer(&catalog);
  auto analysis = analyzer.Resolve(marked.get());
  EXPECT_TRUE(analysis.ok()) << analysis.status();
  MarkSafeEdges(marked.get());
  return marked;
}

/// Serializes a result preserving page boundaries and order: fusion must
/// not only keep the tuple bag, it must keep the exact page packing.
std::vector<std::string> PagesExact(const QueryResult& result) {
  std::vector<std::string> pages;
  for (const PagePtr& page : result.pages()) {
    std::string p;
    for (int i = 0; i < page->num_tuples(); ++i) {
      p += page->tuple(i).ToString();
    }
    pages.push_back(std::move(p));
  }
  return pages;
}

class PipelineFusionEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = std::make_unique<StorageEngine>(2000);
    ASSERT_OK_AND_ASSIGN(auto big,
                         GenerateRelation(storage_.get(), "big", 800, 1));
    ASSERT_OK_AND_ASSIGN(auto small,
                         GenerateRelation(storage_.get(), "small", 100, 2));
    (void)big;
    (void)small;
  }

  /// Executes \p plan under \p policy on one worker (deterministic task
  /// order, so fused and materialized runs are comparable byte for byte).
  QueryResult Run(const PlanNode& plan, PipelinePolicy policy,
                  ExecStats* stats) {
    ExecOptions opts;
    opts.num_processors = 1;
    opts.page_bytes = 1000;
    opts.pipeline = policy;
    auto result = RunQuery(storage_.get(), plan, opts, stats);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? *std::move(result) : QueryResult{};
  }

  std::unique_ptr<StorageEngine> storage_;
};

/// Random restrict/project/join plans over the benchmark schema. Predicates
/// are k-column compares, always compilable, so fusion opportunities are
/// dense; dedup projects are mixed in to exercise the refuse path.
PlanNodePtr RandomChain(const char* relation, Random* rng, int depth) {
  PlanNodePtr plan = MakeScan(relation);
  static const char* kCols[] = {"k10", "k25", "k100", "k1000"};
  static const int kDomains[] = {10, 25, 100, 1000};
  for (int d = 0; d < depth; ++d) {
    const size_t c = rng->Uniform(4);
    // Keep selectivities loose so joins above still see rows.
    const int32_t lit =
        static_cast<int32_t>(rng->Uniform(static_cast<uint64_t>(kDomains[c])));
    ExprPtr pred = rng->Uniform(2) == 0 ? Lt(Col(kCols[c]), Lit(lit))
                                        : Ge(Col(kCols[c]), Lit(lit));
    plan = MakeRestrict(std::move(plan), std::move(pred));
  }
  return plan;
}

TEST_F(PipelineFusionEngineTest, DifferentialFuzzFusedEqualsMaterialized) {
  Random rng(17);
  uint64_t total_fused_edges = 0;
  uint64_t total_pages_elided = 0;
  for (int iter = 0; iter < 40; ++iter) {
    PlanNodePtr plan;
    // Unary chains are order-preserving, so fused and materialized runs
    // must agree byte for byte including page boundaries. Join outputs
    // depend on the order probe pages reach the join task, which fusion
    // legitimately changes; those compare as multisets.
    bool order_preserving = false;
    switch (rng.Uniform(4)) {
      case 0:
        order_preserving = true;
        // Pure unary chain (every edge hands its pages over live).
        plan = RandomChain(rng.Uniform(2) == 0 ? "big" : "small", &rng,
                           1 + static_cast<int>(rng.Uniform(3)));
        if (rng.Uniform(2) == 0) {
          plan = MakeProject(std::move(plan), {"id", "k100", "k1000"});
        }
        break;
      case 1:
        // Restrict chains feeding a join (direct-delivery edges).
        plan = MakeJoin(RandomChain("big", &rng, 1 + rng.Uniform(2)),
                        RandomChain("small", &rng, 1),
                        Eq(Col("k100"), RightCol("k100")));
        break;
      case 2:
        // Join with a unary chain above it.
        plan = MakeRestrict(
            MakeJoin(RandomChain("big", &rng, 1),
                     RandomChain("small", &rng, 1),
                     Eq(Col("k10"), RightCol("k10"))),
            Lt(Col("k1000"), Lit(500)));
        break;
      default:
        // Dedup project consumer: fusion must refuse, results must agree.
        order_preserving = true;
        plan = MakeProject(RandomChain("big", &rng, 2), {"k10", "k25"});
        plan->dedup = true;
        break;
    }

    ExecStats mat_stats, fuse_stats;
    QueryResult materialized =
        Run(*plan, PipelinePolicy::kForceMaterialize, &mat_stats);
    QueryResult fused =
        Run(*MarkEverySafeEdge(storage_->catalog(), *plan),
            PipelinePolicy::kHonorPlan, &fuse_stats);

    SCOPED_TRACE("iter " + std::to_string(iter));
    EXPECT_EQ(materialized.num_tuples(), fused.num_tuples());
    if (order_preserving) {
      EXPECT_EQ(PagesExact(materialized), PagesExact(fused));
    } else {
      EXPECT_EQ(ResultMultiset(materialized), ResultMultiset(fused));
    }
    EXPECT_EQ(mat_stats.pipeline_fused_edges, 0u);
    total_fused_edges += fuse_stats.pipeline_fused_edges;
    total_pages_elided += fuse_stats.pipeline_pages_elided;
  }
  // The fuzz must have actually exercised fusion, heavily.
  EXPECT_GT(total_fused_edges, 20u);
  EXPECT_GT(total_pages_elided, 40u);
}

TEST_F(PipelineFusionEngineTest, HonorsOptimizerMarks) {
  // kHonorPlan fuses exactly the edges DecidePipelining marked.
  auto plan = MakeJoin(
      MakeRestrict(MakeScan("big"), Lt(Col("k1000"), Lit(200))),
      MakeRestrict(MakeScan("small"), Ge(Col("k10"), Lit(2))),
      Eq(Col("k100"), RightCol("k100")));
  Optimizer optimizer(&storage_->catalog());
  OptimizerReport report;
  ASSERT_OK_AND_ASSIGN(PlanNodePtr optimized,
                       optimizer.Optimize(*plan, &report));
  ASSERT_GE(report.edges_fused, 1) << report.ToString();

  ExecStats honor_stats, mat_stats;
  QueryResult honored =
      Run(*optimized, PipelinePolicy::kHonorPlan, &honor_stats);
  QueryResult materialized =
      Run(*optimized, PipelinePolicy::kForceMaterialize, &mat_stats);
  EXPECT_EQ(ResultMultiset(honored), ResultMultiset(materialized));
  EXPECT_EQ(honor_stats.pipeline_fused_edges,
            static_cast<uint64_t>(report.edges_fused));
  EXPECT_GT(honor_stats.pipeline_pages_elided, 0u);
  EXPECT_EQ(mat_stats.pipeline_fused_edges, 0u);
}

TEST_F(PipelineFusionEngineTest, UnmarkedPlanRunsFullyMaterialized) {
  // kHonorPlan on a plan nobody marked must not fuse anything.
  auto plan = MakeJoin(
      MakeRestrict(MakeScan("big"), Lt(Col("k1000"), Lit(300))),
      MakeScan("small"), Eq(Col("k100"), RightCol("k100")));
  ExecStats stats;
  QueryResult result = Run(*plan, PipelinePolicy::kHonorPlan, &stats);
  EXPECT_GT(result.num_tuples(), 0u);
  EXPECT_EQ(stats.pipeline_fused_edges, 0u);
  EXPECT_GT(stats.pipeline_materialized_edges, 0u);
}

// ---------------------------------------------------------------------------
// Simulator level: folded restricts keep results, elide traffic
// ---------------------------------------------------------------------------

TEST(PipelineFusionSimulator, FusedEqualsMaterializedAndElidesTraffic) {
  StorageEngine storage(2000);
  ASSERT_OK_AND_ASSIGN(auto big, GenerateRelation(&storage, "big", 600, 1));
  ASSERT_OK_AND_ASSIGN(auto small,
                       GenerateRelation(&storage, "small", 120, 2));
  (void)big;
  (void)small;

  auto q0 = MakeJoin(MakeRestrict(MakeScan("big"), Lt(Col("k1000"), Lit(250))),
                     MakeRestrict(MakeScan("small"), Ge(Col("k10"), Lit(3))),
                     Eq(Col("k100"), RightCol("k100")));
  auto q1 = MakeProject(
      MakeRestrict(MakeScan("big"), Lt(Col("k100"), Lit(40))),
      {"id", "k100"});
  auto q2 = MakeRestrict(MakeScan("small"), Lt(Col("k1000"), Lit(700)));
  std::vector<PlanNodePtr> marked;
  for (const PlanNode* q : {q0.get(), q1.get(), q2.get()}) {
    marked.push_back(MarkEverySafeEdge(storage.catalog(), *q));
  }
  std::vector<const PlanNode*> queries{marked[0].get(), marked[1].get(),
                                       marked[2].get()};

  MachineOptions materialize;
  materialize.pipeline = PipelinePolicy::kForceMaterialize;
  MachineSimulator mat_sim(&storage, materialize);
  ASSERT_OK_AND_ASSIGN(MachineReport mat, mat_sim.Run(queries));

  MachineOptions fuse;  // kHonorPlan.
  MachineSimulator fuse_sim(&storage, fuse);
  ASSERT_OK_AND_ASSIGN(MachineReport fused, fuse_sim.Run(queries));

  ASSERT_EQ(mat.results.size(), fused.results.size());
  for (size_t qi = 0; qi < mat.results.size(); ++qi) {
    SCOPED_TRACE("query " + std::to_string(qi));
    ExpectSameResult(mat.results[qi], fused.results[qi]);
  }
  EXPECT_EQ(mat.pipeline_fused_edges, 0u);
  // q0 folds both restricts; q1 folds one. q2's restrict is the root, so it
  // stays an instruction although every safe edge is marked.
  EXPECT_EQ(fused.pipeline_fused_edges, 3u);
  EXPECT_GT(fused.pipeline_fused_pages, 0u);
  EXPECT_GT(fused.pipeline_pages_elided, 0u);
  // The folded restricts' instruction packets and result transfers are
  // gone, so the fused machine strictly does less ring work and finishes
  // no later.
  EXPECT_LT(fused.instruction_packets + fused.result_packets,
            mat.instruction_packets + mat.result_packets);
  EXPECT_LE(fused.makespan.nanos(), mat.makespan.nanos());
}

TEST(PipelineFusionSimulator, MarkedProjectEdgeFallsBack) {
  // The simulator only folds restrict-over-base producers; a marked project
  // edge must materialize and count a fallback rather than misexecute.
  StorageEngine storage(2000);
  ASSERT_OK_AND_ASSIGN(auto big, GenerateRelation(&storage, "big", 200, 1));
  (void)big;
  auto plan = MakeRestrict(
      MakeProject(MakeScan("big"), {"id", "k100", "k1000"}),
      Lt(Col("k1000"), Lit(500)));
  ASSERT_EQ(plan->child(0).op, PlanOp::kProject);
  plan->children[0]->pipeline_fused = true;

  MachineOptions opts;  // kHonorPlan.
  MachineSimulator sim(&storage, opts);
  std::vector<const PlanNode*> queries{plan.get()};
  ASSERT_OK_AND_ASSIGN(MachineReport report, sim.Run(queries));
  EXPECT_EQ(report.pipeline_fused_edges, 0u);
  EXPECT_EQ(report.pipeline_runtime_fallbacks, 1u);
  EXPECT_GT(report.results[0].num_tuples(), 0u);
}

// ---------------------------------------------------------------------------
// Determinism golden: ten-query mix, byte-identical pipeline counters
// ---------------------------------------------------------------------------

TEST(PipelineFusionDeterminism, TenQueryCountersExportIdentically) {
  StorageEngine storage(4096);
  ASSERT_OK_AND_ASSIGN(int64_t bytes, BuildPaperDatabase(&storage, 0.05, 42));
  (void)bytes;
  Optimizer optimizer(&storage.catalog());
  std::vector<Query> queries = MakePaperBenchmarkQueries();
  std::vector<PlanNodePtr> optimized;
  int marked_edges = 0;
  for (const Query& q : queries) {
    OptimizerReport report;
    ASSERT_OK_AND_ASSIGN(PlanNodePtr plan, optimizer.Optimize(*q.root, &report));
    marked_edges += report.edges_fused;
    optimized.push_back(std::move(plan));
  }
  // The paper mix has restrict->join edges in Q3..Q10; the optimizer must
  // find fusion work in it.
  EXPECT_GT(marked_edges, 0);
  std::vector<const PlanNode*> plans;
  for (const PlanNodePtr& p : optimized) plans.push_back(p.get());

  // Simulator: two runs, whole reports byte-identical including the
  // machine.pipeline.* family.
  MachineOptions mopts;
  std::string sim_json[2];
  for (int run = 0; run < 2; ++run) {
    MachineSimulator sim(&storage, mopts);
    ASSERT_OK_AND_ASSIGN(MachineReport report, sim.Run(plans));
    EXPECT_GT(report.pipeline_fused_edges, 0u);
    sim_json[run] = report.ToReport().ToJson(/*include_timing=*/false);
  }
  EXPECT_EQ(sim_json[0], sim_json[1]);
  EXPECT_NE(sim_json[0].find("machine.pipeline.fused_edges"),
            std::string::npos);

  // Engine: one worker for a deterministic task order; two runs export
  // byte-identical counters including engine.pipeline.*.
  ExecOptions eopts;
  eopts.num_processors = 1;
  std::string engine_json[2];
  for (int run = 0; run < 2; ++run) {
    ExecStats stats;
    auto results = RunBatch(&storage, plans, eopts, &stats);
    ASSERT_TRUE(results.ok()) << results.status();
    EXPECT_GT(stats.pipeline_fused_edges, 0u);
    engine_json[run] = stats.ToReport().ToJson(/*include_timing=*/false);
  }
  EXPECT_EQ(engine_json[0], engine_json[1]);
  EXPECT_NE(engine_json[0].find("engine.pipeline.fused_edges"),
            std::string::npos);

  // One worker also fixes every page the engine builds, so the counters and
  // the result pages are pinned to literal values at both granularities: a
  // change to how outputs are packed must leave them untouched, not merely
  // repeatable. 1 KB units seal many pages per edge, so the pin covers
  // packing across page boundaries, not just single-page outputs. The
  // buffer hierarchy's traffic is pinned too, with levels small enough that
  // both spill, so a change to how pages are tracked there must charge
  // every transfer and write-back as before.
  struct Golden {
    Granularity granularity;
    uint64_t pages_produced, tuples_produced, packets, arbitration_bytes,
        distribution_bytes, tasks_executed, scan_throttle_yields,
        pipeline_pages_elided, result_fnv;
    BufferStats buffer;
  };
  const Golden goldens[] = {
      {Granularity::kPage, 159, 1180, 89, 66600, 11100, 338, 868, 65,
       0xb9394f984854f8dbULL,
       BufferStats{.disk_read_bytes = 397500,
                   .disk_write_bytes = 394400,
                   .disk_reads = 110,
                   .disk_writes = 146,
                   .cache_read_bytes = 75500,
                   .cache_write_bytes = 71700,
                   .cache_reads = 148,
                   .cache_writes = 81,
                   .local_hits = 80}},
      {Granularity::kRelation, 159, 1180, 89, 66600, 11100, 287, 88, 65,
       0x5f655557cf438e67ULL,
       BufferStats{.disk_read_bytes = 392200,
                   .disk_write_bytes = 404500,
                   .disk_reads = 141,
                   .disk_writes = 179,
                   .cache_read_bytes = 121700,
                   .cache_write_bytes = 114700,
                   .cache_reads = 208,
                   .cache_writes = 142,
                   .local_hits = 13}},
  };
  eopts.page_bytes = 1024;
  eopts.local_memory_pages = 4;
  eopts.disk_cache_pages = 16;
  for (const Golden& want : goldens) {
    SCOPED_TRACE(std::string(GranularityToString(want.granularity)));
    eopts.granularity = want.granularity;
    ExecStats stats;
    auto results = RunBatch(&storage, plans, eopts, &stats);
    ASSERT_TRUE(results.ok()) << results.status();
    // FNV-1a 64 over every result page's serialized bytes, query by query.
    uint64_t fnv = 0xcbf29ce484222325ULL;
    for (const QueryResult& result : *results) {
      for (const PagePtr& page : result.pages()) {
        for (char c : page->Serialize()) {
          fnv ^= static_cast<unsigned char>(c);
          fnv *= 0x100000001b3ULL;
        }
      }
    }
    EXPECT_EQ(stats.pages_produced, want.pages_produced);
    EXPECT_EQ(stats.tuples_produced, want.tuples_produced);
    EXPECT_EQ(stats.packets, want.packets);
    EXPECT_EQ(stats.arbitration_bytes, want.arbitration_bytes);
    EXPECT_EQ(stats.distribution_bytes, want.distribution_bytes);
    EXPECT_EQ(stats.tasks_executed, want.tasks_executed);
    EXPECT_EQ(stats.scan_throttle_yields, want.scan_throttle_yields);
    EXPECT_EQ(stats.pipeline_pages_elided, want.pipeline_pages_elided);
    EXPECT_EQ(fnv, want.result_fnv);
    for (const auto& field : BufferStats::Fields()) {
      EXPECT_EQ(stats.buffer.*field.member, want.buffer.*field.member)
          << "storage." << field.key;
    }
  }
}

}  // namespace
}  // namespace dfdb
