/// \file index_test.cc
/// \brief Zone maps, grid-file indexes, access-path selection, and the
/// pruning differential: index-pruned scans must be byte-identical to full
/// scans on both backends, across MVCC versions and concurrent GC.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/run.h"
#include "index/access_path.h"
#include "index/grid_file.h"
#include "index/index_manager.h"
#include "index/zone_map.h"
#include "machine/simulator.h"
#include "ra/expr_compile.h"
#include "ra/optimizer.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace dfdb {
namespace {

using ::dfdb::testing::ExpectSameResult;
using ::dfdb::testing::ResultMultiset;
using ::dfdb::expr_detail::EvalColCompare;

// ---------------------------------------------------------------------------
// Zone maps
// ---------------------------------------------------------------------------

TEST(ZoneMapTest, BuiltOnSealAndBrackets) {
  StorageEngine storage(/*default_page_bytes=*/1000);
  ASSERT_OK_AND_ASSIGN(RelationId rel,
                       GenerateRelation(&storage, "r", 500, /*seed=*/3));
  ASSERT_OK_AND_ASSIGN(HeapFile * file, storage.GetHeapFile(rel));
  ASSERT_OK(file->Flush());
  const std::vector<PageId> pages = file->PageIds();
  ASSERT_GT(pages.size(), 1u);
  const Schema schema = BenchmarkSchema();
  for (PageId id : pages) {
    auto entry = file->zone_maps().Get(id);
    ASSERT_NE(entry, nullptr) << "no zone map for page " << id;
    ASSERT_OK_AND_ASSIGN(PagePtr page, storage.page_store().Get(id));
    EXPECT_TRUE(ZoneMapBrackets(*entry, schema, *page));
    EXPECT_EQ(entry->tuples, static_cast<uint32_t>(page->num_tuples()));
  }
}

// Conservativeness fuzz: whenever brute-force evaluation finds a tuple on a
// page satisfying every bound, ZoneMapMayMatch must keep the page.
TEST(ZoneMapTest, MayMatchIsConservative) {
  StorageEngine storage(/*default_page_bytes=*/1000);
  ASSERT_OK_AND_ASSIGN(RelationId rel,
                       GenerateRelation(&storage, "r", 1200, /*seed=*/5));
  ASSERT_OK_AND_ASSIGN(HeapFile * file, storage.GetHeapFile(rel));
  ASSERT_OK(file->Flush());
  const Schema schema = BenchmarkSchema();

  Random rng(99);
  const char* cols[] = {"k2", "k10", "k100", "k1000", "val", "seq"};
  int pruned = 0;
  for (int trial = 0; trial < 200; ++trial) {
    // 1-3 random conjuncts compiled to ColCompare bounds.
    ExprPtr pred;
    const int conjuncts = 1 + static_cast<int>(rng.Uniform(3));
    for (int c = 0; c < conjuncts; ++c) {
      const char* col = cols[rng.Uniform(6)];
      ExprPtr lit = std::string(col) == "val"
                        ? Lit(rng.NextDouble())
                        : Lit(static_cast<int32_t>(rng.Uniform(1000)));
      ExprPtr cmp;
      switch (rng.Uniform(5)) {
        case 0: cmp = Lt(Col(col), std::move(lit)); break;
        case 1: cmp = Le(Col(col), std::move(lit)); break;
        case 2: cmp = Gt(Col(col), std::move(lit)); break;
        case 3: cmp = Ge(Col(col), std::move(lit)); break;
        default: cmp = Eq(Col(col), std::move(lit)); break;
      }
      pred = pred == nullptr ? std::move(cmp)
                             : And(std::move(pred), std::move(cmp));
    }
    ASSERT_OK(pred->Bind(schema, nullptr));
    auto compiled = CompiledPredicate::Compile(*pred, schema);
    ASSERT_OK(compiled.status());
    const std::vector<ColCompare>& bounds = compiled->col_compares();
    ASSERT_FALSE(bounds.empty());

    for (PageId id : file->PageIds()) {
      ASSERT_OK_AND_ASSIGN(PagePtr page, storage.page_store().Get(id));
      bool any = false;
      for (int i = 0; i < page->num_tuples() && !any; ++i) {
        bool all = true;
        for (const ColCompare& b : bounds) {
          if (!EvalColCompare(b, page->tuple(i).data())) {
            all = false;
            break;
          }
        }
        any = all;
      }
      auto entry = file->zone_maps().Get(id);
      ASSERT_NE(entry, nullptr);
      const bool keep = ZoneMapMayMatch(*entry, schema, bounds);
      if (any) {
        EXPECT_TRUE(keep) << "pruned a page with matches";
      }
      if (!keep) ++pruned;
    }
  }
  EXPECT_GT(pruned, 0) << "fuzz never pruned anything — vacuous";
}

// ---------------------------------------------------------------------------
// Grid file
// ---------------------------------------------------------------------------

TEST(GridFileTest, ProbeCoversEveryMatchingPage) {
  StorageEngine storage(/*default_page_bytes=*/2000);
  ASSERT_OK_AND_ASSIGN(RelationId rel,
                       GenerateSkewedRelation(&storage, "ev", 20000, 7));
  ASSERT_OK_AND_ASSIGN(HeapFile * file, storage.GetHeapFile(rel));
  ASSERT_OK(file->Flush());
  ASSERT_OK(storage.CommitRelation("ev"));

  IndexManager* mgr = GetIndexManager(&storage);
  ASSERT_OK(mgr->CreateIndex("ev_user", "ev", {"user", "device"}));
  ASSERT_OK_AND_ASSIGN(IndexMeta meta, storage.catalog().GetIndex("ev_user"));

  Snapshot snap = storage.CaptureSnapshot();
  ASSERT_OK_AND_ASSIGN(SnapshotView view, snap.View("ev"));
  auto index = mgr->Resolve(meta, view.commit_ts, view.pages);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->pages_indexed(), view.pages.size());

  const Schema schema = SkewedEventSchema();
  Random rng(11);
  for (int trial = 0; trial < 25; ++trial) {
    const int32_t user = static_cast<int32_t>(
        rng.Uniform(SkewedEventUserCount(20000)));
    ExprPtr eq = Eq(Col("user"), Lit(user));
    ASSERT_OK(eq->Bind(schema, nullptr));
    auto compiled = CompiledPredicate::Compile(*eq, schema);
    ASSERT_OK(compiled.status());
    auto probed = index->Probe(compiled->col_compares());
    ASSERT_TRUE(probed.has_value());
    // Every page actually holding the user must be in the candidate set.
    for (PageId id : view.pages) {
      ASSERT_OK_AND_ASSIGN(PagePtr page, storage.page_store().Get(id));
      bool holds = false;
      for (int i = 0; i < page->num_tuples() && !holds; ++i) {
        holds = EvalColCompare(compiled->col_compares()[0],
                               page->tuple(i).data());
      }
      if (holds) {
        EXPECT_NE(std::find(probed->begin(), probed->end(), id),
                  probed->end())
            << "grid file dropped page " << id << " holding user " << user;
      }
    }
  }
  // An unconstrained probe declines.
  ExprPtr val_pred = Lt(Col("val"), Lit(0.5));
  ASSERT_OK(val_pred->Bind(schema, nullptr));
  auto unconstrained = CompiledPredicate::Compile(*val_pred, schema);
  ASSERT_OK(unconstrained.status());
  EXPECT_FALSE(index->Probe(unconstrained->col_compares()).has_value());
}

// ---------------------------------------------------------------------------
// Catalog definitions
// ---------------------------------------------------------------------------

TEST(IndexCatalogTest, ValidatesDefinitions) {
  StorageEngine storage;
  ASSERT_OK_AND_ASSIGN(RelationId rel,
                       GenerateRelation(&storage, "r", 100, 1));
  (void)rel;
  IndexManager* mgr = GetIndexManager(&storage);
  EXPECT_FALSE(mgr->CreateIndex("i", "missing", {"k10"}).ok());
  EXPECT_FALSE(mgr->CreateIndex("i", "r", {"nope"}).ok());
  EXPECT_FALSE(mgr->CreateIndex("i", "r", {"pad"}).ok());  // CHAR key.
  EXPECT_FALSE(mgr->CreateIndex("i", "r", {"k2", "k5", "k10"}).ok());
  EXPECT_FALSE(mgr->CreateIndex("i", "r", {"k10", "k10"}).ok());
  EXPECT_FALSE(mgr->CreateIndex("", "r", {"k10"}).ok());
  ASSERT_OK(mgr->CreateIndex("i", "r", {"k10"}));
  EXPECT_FALSE(mgr->CreateIndex("i", "r", {"k100"}).ok());  // Duplicate.
  EXPECT_EQ(storage.catalog().GetIndexesFor("r").size(), 1u);
  ASSERT_OK(mgr->DropIndex("i"));
  EXPECT_FALSE(mgr->DropIndex("i").ok());
  // Dropping the relation drops its index definitions.
  ASSERT_OK(mgr->CreateIndex("i2", "r", {"k10", "k100"}));
  ASSERT_OK(storage.DropRelation("r"));
  EXPECT_TRUE(storage.catalog().GetIndexesFor("r").empty());
  EXPECT_FALSE(storage.catalog().GetIndex("i2").ok());
}

// ---------------------------------------------------------------------------
// Optimizer access-path selection
// ---------------------------------------------------------------------------

TEST(AccessPathPlanTest, OptimizerMarksScans) {
  StorageEngine storage(/*default_page_bytes=*/2000);
  ASSERT_OK_AND_ASSIGN(RelationId rel,
                       GenerateSkewedRelation(&storage, "ev", 20000, 7));
  (void)rel;
  ASSERT_OK(storage.SyncAllStats());
  Optimizer optimizer(&storage.catalog());

  // Restrict over scan with extractable bounds -> zone-map mark.
  {
    auto plan = MakeRestrict(MakeScan("ev"), Lt(Col("ts"), Lit(int64_t{400})));
    OptimizerReport report;
    ASSERT_OK_AND_ASSIGN(PlanNodePtr opt, optimizer.Optimize(*plan, &report));
    ASSERT_EQ(opt->child(0).op, PlanOp::kScan);
    EXPECT_EQ(opt->child(0).access_path, ScanAccessPath::kZoneMap);
    EXPECT_FALSE(opt->child(0).prune_bounds.empty());
    EXPECT_EQ(report.scans_zonemap, 1);
    EXPECT_EQ(report.scans_full, 0);
  }
  // Generic predicate -> full scan.
  {
    auto plan = MakeRestrict(MakeScan("ev"),
                             Lt(Add(Col("user"), Col("device")), Lit(3)));
    OptimizerReport report;
    ASSERT_OK_AND_ASSIGN(PlanNodePtr opt, optimizer.Optimize(*plan, &report));
    ASSERT_EQ(opt->child(0).op, PlanOp::kScan);
    EXPECT_EQ(opt->child(0).access_path, ScanAccessPath::kFullScan);
    EXPECT_EQ(report.scans_full, 1);
  }
  // With a catalog index and a selective equality -> grid-file mark.
  ASSERT_OK(GetIndexManager(&storage)->CreateIndex("ev_user", "ev", {"user"}));
  {
    auto plan = MakeRestrict(MakeScan("ev"), Eq(Col("user"), Lit(77)));
    OptimizerReport report;
    ASSERT_OK_AND_ASSIGN(PlanNodePtr opt, optimizer.Optimize(*plan, &report));
    ASSERT_EQ(opt->child(0).op, PlanOp::kScan);
    EXPECT_EQ(opt->child(0).access_path, ScanAccessPath::kGridFile);
    EXPECT_EQ(opt->child(0).index_name, "ev_user");
    EXPECT_EQ(report.scans_gridfile, 1);
  }
  // Unselective range on the indexed column stays zone-map.
  {
    auto plan = MakeRestrict(MakeScan("ev"), Ge(Col("user"), Lit(0)));
    OptimizerReport report;
    ASSERT_OK_AND_ASSIGN(PlanNodePtr opt, optimizer.Optimize(*plan, &report));
    EXPECT_EQ(opt->child(0).access_path, ScanAccessPath::kZoneMap);
  }
}

// ---------------------------------------------------------------------------
// Differential: pruned vs full scan, both backends
// ---------------------------------------------------------------------------

class PruningDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = std::make_unique<StorageEngine>(/*default_page_bytes=*/2000);
    ASSERT_OK_AND_ASSIGN(
        RelationId rel, GenerateSkewedRelation(storage_.get(), "ev", 30000, 7));
    (void)rel;
    ASSERT_OK(storage_->SyncAllStats());
    ASSERT_OK(storage_->CommitRelation("ev"));
    ASSERT_OK(GetIndexManager(storage_.get())
                  ->CreateIndex("ev_ud", "ev", {"user", "device"}));
  }

  // Seeded random predicates over the skewed columns: ts windows, user
  // equalities/ranges, devices, conjunctions.
  PlanNodePtr RandomQuery(Random* rng) {
    const uint64_t users = SkewedEventUserCount(30000);
    switch (rng->Uniform(5)) {
      case 0: {  // Time window.
        const int64_t lo = rng->UniformInRange(0, 30000);
        return MakeRestrict(
            MakeScan("ev"),
            And(Ge(Col("ts"), Lit(lo)),
                Lt(Col("ts"), Lit(lo + rng->UniformInRange(1, 2000)))));
      }
      case 1:  // User equality (hot or rare).
        return MakeRestrict(
            MakeScan("ev"),
            Eq(Col("user"),
               Lit(static_cast<int32_t>(rng->Uniform(users)))));
      case 2:  // User + device.
        return MakeRestrict(
            MakeScan("ev"),
            And(Eq(Col("user"),
                   Lit(static_cast<int32_t>(rng->Uniform(users)))),
                Eq(Col("device"),
                   Lit(static_cast<int32_t>(rng->Uniform(16))))));
      case 3:  // Rare-user tail range.
        return MakeRestrict(
            MakeScan("ev"),
            Ge(Col("user"), Lit(static_cast<int32_t>(users * 9 / 10))));
      default: {  // Value + time conjunction.
        const int64_t lo = rng->UniformInRange(0, 30000);
        return MakeRestrict(MakeScan("ev"),
                            And(Lt(Col("val"), Lit(rng->NextDouble())),
                                Ge(Col("ts"), Lit(lo))));
      }
    }
  }

  std::unique_ptr<StorageEngine> storage_;
};

TEST_F(PruningDifferentialTest, EngineMatchesFullScan) {
  Optimizer optimizer(&storage_->catalog());
  Random rng(123);
  ExecOptions honor;
  honor.page_bytes = 2000;
  ExecOptions full = honor;
  full.index = IndexPolicy::kForceFullScan;

  uint64_t total_pruned = 0;
  for (int trial = 0; trial < 30; ++trial) {
    auto plan = RandomQuery(&rng);
    ASSERT_OK_AND_ASSIGN(PlanNodePtr opt, optimizer.Optimize(*plan, nullptr));
    ASSERT_OK_AND_ASSIGN(QueryResult pruned,
                         RunQuery(storage_.get(), *opt, honor));
    ASSERT_OK_AND_ASSIGN(QueryResult baseline,
                         RunQuery(storage_.get(), *opt, full));
    ExpectSameResult(baseline, pruned);
    total_pruned += pruned.stats().index.pages_pruned;
    EXPECT_EQ(baseline.stats().index.pages_pruned, 0u);
  }
  EXPECT_GT(total_pruned, 0u) << "no query ever pruned — differential vacuous";
}

TEST_F(PruningDifferentialTest, MachineMatchesFullScanAndEngine) {
  Optimizer optimizer(&storage_->catalog());
  Random rng(321);
  MachineOptions honor;
  MachineOptions full;
  full.index = IndexPolicy::kForceFullScan;
  ExecOptions engine_opts;
  engine_opts.page_bytes = 2000;

  uint64_t total_pruned = 0;
  for (int trial = 0; trial < 10; ++trial) {
    auto plan = RandomQuery(&rng);
    ASSERT_OK_AND_ASSIGN(PlanNodePtr opt, optimizer.Optimize(*plan, nullptr));
    MachineSimulator sim_honor(storage_.get(), honor);
    ASSERT_OK_AND_ASSIGN(MachineReport pruned, sim_honor.Run({opt.get()}));
    MachineSimulator sim_full(storage_.get(), full);
    ASSERT_OK_AND_ASSIGN(MachineReport baseline, sim_full.Run({opt.get()}));
    ASSERT_EQ(pruned.results.size(), 1u);
    ASSERT_EQ(baseline.results.size(), 1u);
    ExpectSameResult(baseline.results[0], pruned.results[0]);
    ASSERT_OK_AND_ASSIGN(QueryResult engine,
                         RunQuery(storage_.get(), *opt, engine_opts));
    ExpectSameResult(engine, pruned.results[0]);
    total_pruned += pruned.index.pages_pruned;
    EXPECT_EQ(baseline.index.pages_pruned, 0u);
  }
  EXPECT_GT(total_pruned, 0u);
}

// ---------------------------------------------------------------------------
// MVCC versioning: old snapshots see consistent maps and indexes
// ---------------------------------------------------------------------------

TEST(IndexMvccTest, OldSnapshotUnchangedAfterDelete) {
  StorageEngine storage(/*default_page_bytes=*/2000);
  ASSERT_OK_AND_ASSIGN(RelationId rel,
                       GenerateSkewedRelation(&storage, "ev", 20000, 7));
  (void)rel;
  ASSERT_OK(storage.SyncAllStats());
  ASSERT_OK(storage.CommitRelation("ev"));
  ASSERT_OK(GetIndexManager(&storage)->CreateIndex("ev_u", "ev", {"user"}));

  Optimizer optimizer(&storage.catalog());
  const int32_t user = 3;  // Hot user: survives the delete partially.
  auto plan = MakeRestrict(MakeScan("ev"), Eq(Col("user"), Lit(user)));
  ASSERT_OK_AND_ASSIGN(PlanNodePtr opt, optimizer.Optimize(*plan, nullptr));
  ASSERT_EQ(opt->child(0).access_path, ScanAccessPath::kGridFile);

  ExecOptions honor;
  honor.page_bytes = 2000;
  ExecOptions full = honor;
  full.index = IndexPolicy::kForceFullScan;

  // Result at the pre-delete version, pruned.
  ASSERT_OK_AND_ASSIGN(QueryResult before, RunQuery(&storage, *opt, honor));

  // Hold a snapshot of the old version across a CoW delete + commit.
  Snapshot old_snap = storage.CaptureSnapshot();
  {
    auto del = MakeDelete("ev", Lt(Col("ts"), Lit(int64_t{10000})));
    ASSERT_OK_AND_ASSIGN(PlanNodePtr del_opt,
                         optimizer.Optimize(*del, nullptr));
    ASSERT_OK_AND_ASSIGN(QueryResult del_result,
                         RunQuery(&storage, *del_opt, honor));
    (void)del_result;
    ASSERT_OK(storage.CommitRelation("ev"));
  }

  // The old snapshot's pruned scan equals its full scan — the grid file
  // Resolve()d for the old page list, not the rewritten one.
  ASSERT_OK_AND_ASSIGN(SnapshotView old_view, old_snap.View("ev"));
  IndexPruneCounters stats;
  ASSERT_OK_AND_ASSIGN(IndexMeta meta, storage.catalog().GetIndex("ev_u"));
  std::vector<PageId> kept =
      PruneScanPages(&storage, opt->child(0), old_view.pages,
                     old_view.commit_ts, &stats);
  EXPECT_LT(kept.size(), old_view.pages.size());
  EXPECT_EQ(stats.gridfile_probes, 1u);
  std::vector<std::string> brute, via_index;
  ExprPtr eq = Eq(Col("user"), Lit(user));
  ASSERT_OK(eq->Bind(SkewedEventSchema(), nullptr));
  auto compiled = CompiledPredicate::Compile(*eq, SkewedEventSchema());
  ASSERT_OK(compiled.status());
  for (PageId id : old_view.pages) {
    ASSERT_OK_AND_ASSIGN(PagePtr page, storage.page_store().Get(id));
    for (int i = 0; i < page->num_tuples(); ++i) {
      if (EvalColCompare(compiled->col_compares()[0], page->tuple(i).data())) {
        brute.push_back(std::string(page->tuple(i).ToString()));
      }
    }
  }
  for (PageId id : kept) {
    ASSERT_OK_AND_ASSIGN(PagePtr page, storage.page_store().Get(id));
    for (int i = 0; i < page->num_tuples(); ++i) {
      if (EvalColCompare(compiled->col_compares()[0], page->tuple(i).data())) {
        via_index.push_back(std::string(page->tuple(i).ToString()));
      }
    }
  }
  std::sort(brute.begin(), brute.end());
  std::sort(via_index.begin(), via_index.end());
  EXPECT_EQ(brute, via_index);
  // The old version's answer must match the pre-delete result, and the new
  // head's pruned answer must match its own full scan.
  EXPECT_EQ(brute.size(), before.num_tuples());
  ASSERT_OK_AND_ASSIGN(QueryResult after_pruned,
                       RunQuery(&storage, *opt, honor));
  ASSERT_OK_AND_ASSIGN(QueryResult after_full, RunQuery(&storage, *opt, full));
  ExpectSameResult(after_full, after_pruned);
}

// Concurrent pruned readers against a deleting/committing writer with
// snapshot GC churning page ids. Run under tsan via index_test_tsan.
TEST(IndexMvccTest, ConcurrentPrunedReadsUnderGc) {
  StorageEngine storage(/*default_page_bytes=*/2000);
  ASSERT_OK_AND_ASSIGN(RelationId rel,
                       GenerateSkewedRelation(&storage, "ev", 10000, 7));
  (void)rel;
  ASSERT_OK(storage.SyncAllStats());
  ASSERT_OK(storage.CommitRelation("ev"));
  ASSERT_OK(GetIndexManager(&storage)->CreateIndex("ev_u", "ev", {"user"}));

  Optimizer optimizer(&storage.catalog());
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Random rng(1000 + t);
      ExecOptions honor;
      honor.page_bytes = 2000;
      honor.num_processors = 2;
      ExecOptions full = honor;
      full.index = IndexPolicy::kForceFullScan;
      while (!stop.load(std::memory_order_relaxed)) {
        auto plan = MakeRestrict(
            MakeScan("ev"),
            Eq(Col("user"), Lit(static_cast<int32_t>(rng.Uniform(64)))));
        auto opt = optimizer.Optimize(*plan, nullptr);
        if (!opt.ok()) { ++failures; break; }
        // Each run snapshots independently while the writer commits, so
        // only success (no torn reads, no use-after-free under GC) is
        // asserted here; result equality is covered by the differential
        // tests above.
        ExecOptions opts = rng.Bernoulli(0.5) ? honor : full;
        auto a = RunQuery(&storage, **opt, opts);
        auto b = RunQuery(&storage, **opt, full);
        if (!a.ok() || !b.ok()) { ++failures; break; }
      }
    });
  }
  std::thread writer([&] {
    Random rng(5);
    for (int round = 0; round < 8; ++round) {
      auto del = MakeDelete(
          "ev", Eq(Col("device"), Lit(static_cast<int32_t>(rng.Uniform(16)))));
      auto opt = optimizer.Optimize(*del, nullptr);
      if (!opt.ok()) { ++failures; break; }
      ExecOptions opts;
      opts.page_bytes = 2000;
      auto r = RunQuery(&storage, **opt, opts);
      if (!r.ok()) { ++failures; break; }
      if (!storage.CommitRelation("ev").ok()) { ++failures; break; }
    }
    stop.store(true, std::memory_order_relaxed);
  });
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace dfdb
