/// \file snapshot_test.cc
/// \brief MVCC snapshot isolation: old versions stay byte-identically
/// readable under concurrent writers, version GC never reclaims a page an
/// open snapshot can see, and snapshot-mode readers admit without queueing.

#include "storage/snapshot.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/reference.h"
#include "engine/scheduler.h"
#include "storage/storage_engine.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace dfdb {
namespace {

using ::dfdb::testing::ExpectSameResult;
using ::dfdb::testing::ResultMultiset;

/// k1000 is column 7 of the benchmark schema (see workload/generator.h).
constexpr int kK1000Col = 7;

bool K1000Below(const TupleView& t, int32_t bound) {
  auto v = t.GetValue(kK1000Col);
  return v.ok() && v->as_int32() < bound;
}

/// Concatenated payload bytes of \p pages, in order — the byte-identity
/// fingerprint of one relation version.
std::string PageBytes(const StorageEngine& storage,
                      const std::vector<PageId>& pages) {
  std::string bytes;
  for (PageId id : pages) {
    auto page = storage.page_store().Get(id);
    if (!page.ok()) return "<missing page>";
    for (int i = 0; i < (*page)->num_tuples(); ++i) {
      Slice t = (*page)->tuple(i);
      bytes.append(t.data(), t.size());
    }
  }
  return bytes;
}

class SnapshotStorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = std::make_unique<StorageEngine>(/*default_page_bytes=*/1000);
    ASSERT_OK_AND_ASSIGN(
        auto id, GenerateRelation(storage_.get(), "rows", 300, /*seed=*/7));
    (void)id;
    ASSERT_OK(storage_->CommitRelation("rows"));
  }

  std::unique_ptr<StorageEngine> storage_;
};

TEST_F(SnapshotStorageTest, OldVersionStaysByteIdentical) {
  Snapshot before = storage_->CaptureSnapshot();
  ASSERT_TRUE(before.valid());
  ASSERT_OK_AND_ASSIGN(SnapshotView view, before.View("rows"));
  EXPECT_EQ(view.tuple_count, 300u);
  const std::string original_bytes = PageBytes(*storage_, view.pages);
  ASSERT_NE(original_bytes, "<missing page>");

  // Copy-on-write delete: survivors are rewritten into fresh pages, the
  // old pages are retired (not freed) because `before` can still see them.
  ASSERT_OK_AND_ASSIGN(HeapFile * file, storage_->GetHeapFile("rows"));
  ASSERT_OK_AND_ASSIGN(
      uint64_t removed,
      file->DeleteWhere([](const TupleView& t) { return K1000Below(t, 500); }));
  EXPECT_GT(removed, 0u);
  ASSERT_OK(storage_->SyncStats("rows"));

  // The old version resolves to the same pages with the same bytes.
  ASSERT_OK_AND_ASSIGN(SnapshotView view_again, before.View("rows"));
  EXPECT_EQ(view_again.pages, view.pages);
  EXPECT_EQ(view_again.tuple_count, 300u);
  EXPECT_EQ(PageBytes(*storage_, view_again.pages), original_bytes);

  // A snapshot captured after the commit sees the survivors only.
  Snapshot after = storage_->CaptureSnapshot();
  ASSERT_OK_AND_ASSIGN(SnapshotView new_view, after.View("rows"));
  EXPECT_EQ(new_view.tuple_count, 300u - removed);
  EXPECT_GT(after.ts(), before.ts());
}

TEST_F(SnapshotStorageTest, GcNeverReclaimsPagesVisibleToOpenSnapshot) {
  Snapshot open_snap = storage_->CaptureSnapshot();
  ASSERT_OK_AND_ASSIGN(SnapshotView view, open_snap.View("rows"));
  ASSERT_FALSE(view.pages.empty());

  // Delete everything: every committed page leaves the head and retires.
  ASSERT_OK_AND_ASSIGN(HeapFile * file, storage_->GetHeapFile("rows"));
  ASSERT_OK_AND_ASSIGN(uint64_t removed,
                       file->DeleteWhere([](const TupleView&) { return true; }));
  EXPECT_EQ(removed, 300u);
  ASSERT_OK(storage_->SyncStats("rows"));

  MvccStats stats = storage_->mvcc_stats();
  EXPECT_EQ(stats.snapshots_open, 1u);
  EXPECT_GE(stats.versions_live, 2u);

  // While the snapshot is open, every page it can see must stay readable.
  for (PageId id : view.pages) {
    EXPECT_OK(storage_->page_store().Get(id).status());
  }
  const uint64_t gc_before = stats.gc_reclaimed;

  // Dropping the pin makes the retired pages reclaimable — and reclaimed.
  open_snap.Release();
  MvccStats after = storage_->mvcc_stats();
  EXPECT_EQ(after.snapshots_open, 0u);
  EXPECT_GT(after.gc_reclaimed, gc_before);
  for (PageId id : view.pages) {
    EXPECT_FALSE(storage_->page_store().Get(id).ok());
  }
}

class SnapshotSchedulerTest : public ::testing::Test {
 protected:
  ExecOptions Options(int processors) const {
    ExecOptions opts;
    opts.num_processors = processors;
    opts.page_bytes = 1000;
    opts.local_memory_pages = 16;
    opts.disk_cache_pages = 64;
    return opts;
  }
};

TEST_F(SnapshotSchedulerTest, ReaderStampedBeforeWriterSeesOldBytes) {
  StorageEngine storage(/*default_page_bytes=*/1000);
  ASSERT_OK_AND_ASSIGN(auto id,
                       GenerateRelation(&storage, "victim", 400, /*seed=*/11));
  (void)id;

  // Serial oracles on identical data: the pre-delete and post-delete states.
  StorageEngine oracle(/*default_page_bytes=*/1000);
  ASSERT_OK_AND_ASSIGN(auto oid,
                       GenerateRelation(&oracle, "victim", 400, /*seed=*/11));
  (void)oid;
  ReferenceExecutor oracle_ref(&oracle);
  ASSERT_OK_AND_ASSIGN(QueryResult pre_writer,
                       oracle_ref.Execute(*MakeScan("victim")));

  // Deferred single-worker replay: the writer is submitted (and admitted)
  // first and fully commits before the reader's plan runs — but the reader
  // was stamped at Submit time, so it must read the pre-writer version
  // byte-identically.
  SchedulerOptions sopts;
  sopts.exec = Options(1);
  sopts.defer_worker_start = true;
  Scheduler scheduler(&storage, std::move(sopts));
  auto del = MakeDelete("victim", Lt(Col("k1000"), Lit(500)));
  auto scan = MakeScan("victim");
  ASSERT_OK_AND_ASSIGN(QueryHandle writer, scheduler.Submit(*del));
  ASSERT_OK_AND_ASSIGN(QueryHandle reader, scheduler.Submit(*scan));
  scheduler.Start();
  ASSERT_OK_AND_ASSIGN(QueryResult writer_result, writer.Wait());
  ASSERT_OK_AND_ASSIGN(QueryResult reader_result, reader.Wait());
  scheduler.Shutdown();
  (void)writer_result;

  ExpectSameResult(pre_writer, reader_result);
  // The reader never touched the admission queue.
  EXPECT_EQ(reader_result.stats().sched.queued, 0u);
  EXPECT_EQ(reader_result.stats().sched.queue_wait_ns, 0u);
  EXPECT_GE(reader_result.stats().mvcc.snapshots_captured, 2u);

  // The head moved on: a fresh scan sees the post-delete state.
  ASSERT_OK_AND_ASSIGN(QueryResult del_oracle,
                       oracle_ref.Execute(*del->Clone()));
  (void)del_oracle;
  ASSERT_OK_AND_ASSIGN(QueryResult post_writer,
                       oracle_ref.Execute(*MakeScan("victim")));
  ReferenceExecutor ref(&storage);
  ASSERT_OK_AND_ASSIGN(QueryResult head, ref.Execute(*MakeScan("victim")));
  ExpectSameResult(post_writer, head);
}

TEST_F(SnapshotSchedulerTest, ConcurrentDeleteAndScanDifferential) {
  // Writers delete disjoint k1000 ranges >= 900 while readers repeatedly
  // scan the k1000 < 900 region. Under snapshot isolation every reader —
  // whenever it was stamped — must return the serial oracle's bytes: a
  // torn read mid-DeleteWhere would drop or duplicate survivor rows.
  StorageEngine storage(/*default_page_bytes=*/1000);
  ASSERT_OK_AND_ASSIGN(auto id,
                       GenerateRelation(&storage, "mix", 1000, /*seed=*/5));
  (void)id;

  StorageEngine oracle(/*default_page_bytes=*/1000);
  ASSERT_OK_AND_ASSIGN(auto oid,
                       GenerateRelation(&oracle, "mix", 1000, /*seed=*/5));
  (void)oid;
  ReferenceExecutor oracle_ref(&oracle);
  auto reader_plan = MakeRestrict(MakeScan("mix"), Lt(Col("k1000"), Lit(900)));
  ASSERT_OK_AND_ASSIGN(QueryResult expected,
                       oracle_ref.Execute(*reader_plan));

  constexpr int kWriters = 4;
  constexpr int kReadersPerThread = 4;
  constexpr int kReaderThreads = 4;
  Scheduler scheduler(&storage, Options(4));

  std::vector<std::thread> threads;
  std::vector<Status> writer_status(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto del = MakeDelete(
          "mix", And(Ge(Col("k1000"), Lit(900 + 25 * w)),
                     Lt(Col("k1000"), Lit(900 + 25 * (w + 1)))));
      auto handle = scheduler.Submit(*del);
      if (!handle.ok()) {
        writer_status[w] = handle.status();
        return;
      }
      writer_status[w] = handle->Wait().status();
    });
  }
  std::vector<std::vector<StatusOr<QueryResult>>> reads(kReaderThreads);
  for (int t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kReadersPerThread; ++i) {
        auto handle = scheduler.Submit(*reader_plan);
        if (!handle.ok()) {
          reads[t].push_back(handle.status());
          continue;
        }
        reads[t].push_back(handle->Wait());
      }
    });
  }
  for (auto& th : threads) th.join();
  scheduler.Shutdown();

  for (int w = 0; w < kWriters; ++w) EXPECT_OK(writer_status[w]);
  for (int t = 0; t < kReaderThreads; ++t) {
    ASSERT_EQ(reads[t].size(), static_cast<size_t>(kReadersPerThread));
    for (auto& r : reads[t]) {
      ASSERT_OK(r.status());
      ExpectSameResult(expected, *r);
      // Snapshot mode: readers admit immediately, always.
      EXPECT_EQ(r->stats().sched.queued, 0u);
    }
  }

  // Differential: the final head equals the serial oracle after all
  // deletes (order irrelevant — the ranges are disjoint).
  for (int w = 0; w < kWriters; ++w) {
    auto del = MakeDelete(
        "mix", And(Ge(Col("k1000"), Lit(900 + 25 * w)),
                   Lt(Col("k1000"), Lit(900 + 25 * (w + 1)))));
    ASSERT_OK(oracle_ref.Execute(*del).status());
  }
  ASSERT_OK_AND_ASSIGN(QueryResult oracle_head,
                       oracle_ref.Execute(*MakeScan("mix")));
  ReferenceExecutor ref(&storage);
  ASSERT_OK_AND_ASSIGN(QueryResult head, ref.Execute(*MakeScan("mix")));
  ExpectSameResult(oracle_head, head);

  // No snapshot leaked past query completion, and old versions were
  // eventually collected down to the final head.
  MvccStats stats = storage.mvcc_stats();
  EXPECT_EQ(stats.snapshots_open, 0u);
  EXPECT_GE(stats.commits, static_cast<uint64_t>(kWriters));
}

TEST_F(SnapshotSchedulerTest, BarrierModeStillQueuesReaders) {
  // The legacy regime is preserved behind ConcurrencyMode::kBarrier:
  // deferred submission of writer-then-reader makes the reader queue and
  // observe the post-writer state (the pre-MVCC semantics).
  StorageEngine storage(/*default_page_bytes=*/1000);
  ASSERT_OK_AND_ASSIGN(auto id,
                       GenerateRelation(&storage, "victim", 400, /*seed=*/11));
  (void)id;
  StorageEngine oracle(/*default_page_bytes=*/1000);
  ASSERT_OK_AND_ASSIGN(auto oid,
                       GenerateRelation(&oracle, "victim", 400, /*seed=*/11));
  (void)oid;
  ReferenceExecutor oracle_ref(&oracle);
  auto del = MakeDelete("victim", Lt(Col("k1000"), Lit(500)));
  ASSERT_OK(oracle_ref.Execute(*del).status());
  ASSERT_OK_AND_ASSIGN(QueryResult post_writer,
                       oracle_ref.Execute(*MakeScan("victim")));

  SchedulerOptions sopts;
  sopts.exec = Options(1);
  sopts.defer_worker_start = true;
  sopts.concurrency = ConcurrencyMode::kBarrier;
  Scheduler scheduler(&storage, std::move(sopts));
  ASSERT_OK_AND_ASSIGN(QueryHandle writer, scheduler.Submit(*del->Clone()));
  ASSERT_OK_AND_ASSIGN(QueryHandle reader,
                       scheduler.Submit(*MakeScan("victim")));
  scheduler.Start();
  ASSERT_OK(writer.Wait().status());
  ASSERT_OK_AND_ASSIGN(QueryResult reader_result, reader.Wait());
  scheduler.Shutdown();

  EXPECT_EQ(reader_result.stats().sched.queued, 1u);
  ExpectSameResult(post_writer, reader_result);
}

TEST_F(SnapshotSchedulerTest, BarrierModeFailedWriterRollsBack) {
  // Barrier mode differs from snapshot mode only in admission: a writer
  // that fails mid-append is rolled back, so none of the tuples it appended
  // before the error stay visible.
  StorageEngine storage(/*default_page_bytes=*/1000);
  ASSERT_OK_AND_ASSIGN(auto src,
                       GenerateRelation(&storage, "src", 400, /*seed=*/3));
  ASSERT_OK_AND_ASSIGN(auto dst,
                       GenerateRelation(&storage, "dst", 50, /*seed=*/4));
  (void)src;
  (void)dst;
  ASSERT_OK_AND_ASSIGN(QueryResult before,
                       ReferenceExecutor(&storage).Execute(*MakeScan("dst")));
  ASSERT_EQ(before.num_tuples(), 50u);

  SchedulerOptions sopts;
  sopts.exec = Options(1);
  sopts.concurrency = ConcurrencyMode::kBarrier;
  Scheduler scheduler(&storage, std::move(sopts));
  // 1000 / (id - 200) divides by zero at id 200, after earlier pages have
  // already been appended.
  auto append = MakeAppend(
      MakeRestrict(MakeScan("src"),
                   Gt(Div(Lit(1000), Sub(Col("id"), Lit(200))),
                      Lit(-100000))),
      "dst");
  ASSERT_OK_AND_ASSIGN(QueryHandle writer, scheduler.Submit(*append));
  EXPECT_FALSE(writer.Wait().ok());
  ASSERT_OK_AND_ASSIGN(QueryHandle reader,
                       scheduler.Submit(*MakeScan("dst")));
  ASSERT_OK_AND_ASSIGN(QueryResult after, reader.Wait());
  scheduler.Shutdown();
  ASSERT_EQ(after.num_tuples(), before.num_tuples());
  ExpectSameResult(before, after);
}

}  // namespace
}  // namespace dfdb
