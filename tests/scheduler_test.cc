/// \file scheduler_test.cc
/// \brief Tests for the resident Scheduler: concurrent Submit, MC admission,
/// deterministic deferred-start replay, and shutdown semantics.

#include "engine/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/reference.h"
#include "obs/metrics.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace dfdb {
namespace {

using ::dfdb::testing::ExpectSameResult;
using ::dfdb::testing::ResultMultiset;

class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = std::make_unique<StorageEngine>(/*default_page_bytes=*/1000);
    ASSERT_OK_AND_ASSIGN(auto r1, GenerateRelation(storage_.get(), "alpha",
                                                   500, /*seed=*/7));
    ASSERT_OK_AND_ASSIGN(auto r2, GenerateRelation(storage_.get(), "beta",
                                                   200, /*seed=*/8));
    (void)r1;
    (void)r2;
  }

  ExecOptions Options(int processors) const {
    ExecOptions opts;
    opts.num_processors = processors;
    opts.page_bytes = 1000;
    opts.local_memory_pages = 16;
    opts.disk_cache_pages = 64;
    return opts;
  }

  std::vector<PlanNodePtr> ReadOnlyPlans() const {
    std::vector<PlanNodePtr> plans;
    plans.push_back(
        MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(400))));
    plans.push_back(MakeProject(MakeScan("beta"), {"k10", "k2"},
                                /*dedup=*/true));
    plans.push_back(MakeJoin(MakeScan("beta"),
                             MakeRestrict(MakeScan("alpha"),
                                          Lt(Col("k1000"), Lit(100))),
                             Eq(Col("k100"), RightCol("k100"))));
    plans.push_back(MakeAggregate(
        MakeScan("alpha"), {"k2"},
        {{AggregateSpec::Func::kSum, "k1000", "sum_k1000"}}));
    return plans;
  }

  std::unique_ptr<StorageEngine> storage_;
};

TEST_F(SchedulerTest, SubmitRunsOneQuery) {
  Scheduler scheduler(storage_.get(), Options(4));
  auto plan = MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(250)));
  ASSERT_OK_AND_ASSIGN(QueryHandle handle, scheduler.Submit(*plan));
  EXPECT_TRUE(handle.valid());
  ASSERT_OK_AND_ASSIGN(QueryResult result, handle.Wait());
  scheduler.Shutdown();

  ReferenceExecutor reference(storage_.get());
  ASSERT_OK_AND_ASSIGN(QueryResult expected, reference.Execute(*plan));
  ExpectSameResult(expected, result);
  // Admitted with no contention: the per-query stats say so, exactly.
  EXPECT_EQ(result.stats().sched.admitted, 1u);
  EXPECT_EQ(result.stats().sched.queued, 0u);
  EXPECT_EQ(result.stats().sched.queue_wait_ns, 0u);
  EXPECT_EQ(handle.queue_wait_ns(), 0u);
}

TEST_F(SchedulerTest, WaitTwiceReturnsFailedPrecondition) {
  Scheduler scheduler(storage_.get(), Options(2));
  auto plan = MakeScan("beta");
  ASSERT_OK_AND_ASSIGN(QueryHandle handle, scheduler.Submit(*plan));
  ASSERT_TRUE(handle.Wait().ok());
  EXPECT_TRUE(handle.Wait().status().IsFailedPrecondition());
  EXPECT_TRUE(QueryHandle().Wait().status().IsFailedPrecondition());
}

TEST_F(SchedulerTest, AnalysisErrorSurfacesAtSubmit) {
  Scheduler scheduler(storage_.get(), Options(2));
  auto bad = MakeScan("no_such_relation");
  EXPECT_FALSE(scheduler.Submit(*bad).ok());
  // The scheduler stays usable afterwards.
  ASSERT_OK_AND_ASSIGN(QueryHandle ok, scheduler.Submit(*MakeScan("beta")));
  EXPECT_TRUE(ok.Wait().ok());
}

TEST_F(SchedulerTest, ConcurrentSubmitFromManyThreads) {
  // Many client threads submit read queries against one resident pool; every
  // result must match the serial reference executor.
  auto plans = ReadOnlyPlans();
  std::vector<QueryResult> expected;
  ReferenceExecutor reference(storage_.get());
  for (const auto& plan : plans) {
    ASSERT_OK_AND_ASSIGN(QueryResult r, reference.Execute(*plan));
    expected.push_back(std::move(r));
  }

  constexpr int kClientThreads = 8;
  constexpr int kPerThread = 5;
  Scheduler scheduler(storage_.get(), Options(4));
  std::vector<std::vector<StatusOr<QueryResult>>> outcomes(kClientThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto& plan = plans[static_cast<size_t>((t + i) % plans.size())];
        auto handle = scheduler.Submit(*plan);
        if (!handle.ok()) {
          outcomes[static_cast<size_t>(t)].push_back(handle.status());
          continue;
        }
        outcomes[static_cast<size_t>(t)].push_back(handle->Wait());
      }
    });
  }
  for (auto& c : clients) c.join();
  scheduler.Shutdown();

  for (int t = 0; t < kClientThreads; ++t) {
    ASSERT_EQ(outcomes[static_cast<size_t>(t)].size(),
              static_cast<size_t>(kPerThread));
    for (int i = 0; i < kPerThread; ++i) {
      auto& outcome = outcomes[static_cast<size_t>(t)][static_cast<size_t>(i)];
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      const size_t which = static_cast<size_t>((t + i) % plans.size());
      EXPECT_EQ(ResultMultiset(expected[which]), ResultMultiset(*outcome));
    }
  }

  ExecStats totals = scheduler.AggregateStats();
  EXPECT_EQ(totals.sched.admitted + totals.sched.queued,
            static_cast<uint64_t>(kClientThreads * kPerThread));
}

TEST_F(SchedulerTest, ConflictingWritersSerializeOnSharedPool) {
  // Writers against one relation must serialize through the MC queue while
  // sharing the resident pool; the final row count proves none was lost.
  ASSERT_OK_AND_ASSIGN(
      auto sink, GenerateRelation(storage_.get(), "sink", 10, /*seed=*/3));
  (void)sink;
  const uint64_t before = (*storage_->GetHeapFile("sink"))->tuple_count();

  // Deferred start: all writers are submitted before any worker runs, so
  // exactly one is admitted and the rest queue — no timing luck involved.
  constexpr int kWriters = 6;
  SchedulerOptions options;
  options.exec = Options(4);
  options.defer_worker_start = true;
  Scheduler scheduler(storage_.get(), options);
  std::vector<QueryHandle> handles;
  for (int i = 0; i < kWriters; ++i) {
    auto plan = MakeAppend(
        MakeRestrict(MakeScan("beta"), Lt(Col("k1000"), Lit(50))), "sink");
    ASSERT_OK_AND_ASSIGN(QueryHandle h, scheduler.Submit(*plan));
    handles.push_back(std::move(h));
  }
  scheduler.Start();
  uint64_t queued = 0;
  for (auto& h : handles) {
    ASSERT_OK_AND_ASSIGN(QueryResult r, h.Wait());
    queued += r.stats().sched.queued;
  }
  scheduler.Shutdown();

  ReferenceExecutor reference(storage_.get());
  ASSERT_OK_AND_ASSIGN(
      QueryResult matching,
      reference.Execute(
          *MakeRestrict(MakeScan("beta"), Lt(Col("k1000"), Lit(50)))));
  const uint64_t after = (*storage_->GetHeapFile("sink"))->tuple_count();
  EXPECT_EQ(after - before,
            static_cast<uint64_t>(kWriters) * matching.num_tuples());
  // Every writer but the first waited behind another.
  EXPECT_EQ(queued, static_cast<uint64_t>(kWriters - 1));
  ExecStats totals = scheduler.AggregateStats();
  EXPECT_EQ(totals.sched.queued, queued);
  EXPECT_GT(totals.sched.queue_wait_ns, 0u);
}

TEST_F(SchedulerTest, DeferredSingleWorkerReplayIsDeterministic) {
  // Two identically-seeded schedulers, one worker each, workers deferred
  // until every query is enqueued: traces and counters must be identical —
  // the same contract the Executor compatibility wrappers rely on.
  std::string exports[2];
  for (int round = 0; round < 2; ++round) {
    auto storage = std::make_unique<StorageEngine>(/*default_page_bytes=*/1000);
    ASSERT_OK_AND_ASSIGN(auto r1, GenerateRelation(storage.get(), "alpha",
                                                   500, /*seed=*/7));
    ASSERT_OK_AND_ASSIGN(auto r2, GenerateRelation(storage.get(), "beta",
                                                   200, /*seed=*/8));
    (void)r1;
    (void)r2;
    SchedulerOptions options;
    options.exec = Options(/*processors=*/1);
    options.exec.enable_trace = true;
    options.defer_worker_start = true;
    Scheduler scheduler(storage.get(), options);

    std::vector<PlanNodePtr> plans;
    plans.push_back(
        MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(400))));
    plans.push_back(MakeJoin(MakeScan("beta"),
                             MakeRestrict(MakeScan("alpha"),
                                          Lt(Col("k1000"), Lit(100))),
                             Eq(Col("k100"), RightCol("k100"))));
    std::vector<QueryHandle> handles;
    for (const auto& plan : plans) {
      ASSERT_OK_AND_ASSIGN(QueryHandle h, scheduler.Submit(*plan));
      handles.push_back(std::move(h));
    }
    scheduler.Start();
    for (auto& h : handles) ASSERT_TRUE(h.Wait().ok());
    scheduler.Shutdown();
    auto trace = scheduler.FinishTrace();
    ASSERT_NE(trace, nullptr);
    EXPECT_GT(trace->size(), 0u);
    exports[round] =
        scheduler.AggregateStats().ToReport().ToJson(/*include_timing=*/false);
  }
  EXPECT_EQ(exports[0], exports[1]);
}

TEST_F(SchedulerTest, ShutdownCancelsQueuedQueries) {
  // A never-started scheduler cancels everything at shutdown: nothing ran,
  // so nothing was mutated.
  SchedulerOptions options;
  options.exec = Options(2);
  options.defer_worker_start = true;
  const uint64_t before = (*storage_->GetHeapFile("alpha"))->tuple_count();
  Scheduler scheduler(storage_.get(), options);
  std::vector<QueryHandle> handles;
  for (int i = 0; i < 4; ++i) {
    auto plan = MakeAppend(
        MakeRestrict(MakeScan("beta"), Lt(Col("k1000"), Lit(50))), "alpha");
    ASSERT_OK_AND_ASSIGN(QueryHandle h, scheduler.Submit(*plan));
    handles.push_back(std::move(h));
  }
  scheduler.Shutdown();
  for (auto& h : handles) {
    EXPECT_TRUE(h.Done());
    auto result = h.Wait();
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsCancelled()) << result.status();
  }
  EXPECT_EQ((*storage_->GetHeapFile("alpha"))->tuple_count(), before);
  // New submissions are rejected after shutdown.
  EXPECT_TRUE(
      scheduler.Submit(*MakeScan("beta")).status().IsUnavailable());
}

TEST_F(SchedulerTest, RunningShutdownDrainsActiveAndCancelsWaiting) {
  // With workers live, Shutdown drains admitted queries to completion and
  // cancels only those still waiting in the MC queue.
  Scheduler scheduler(storage_.get(), Options(2));
  auto writer = MakeAppend(
      MakeRestrict(MakeScan("beta"), Lt(Col("k1000"), Lit(100))), "alpha");
  std::vector<QueryHandle> handles;
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(QueryHandle h, scheduler.Submit(*writer));
    handles.push_back(std::move(h));
  }
  scheduler.Shutdown();
  int completed = 0;
  int cancelled = 0;
  for (auto& h : handles) {
    auto result = h.Wait();
    if (result.ok()) {
      ++completed;
    } else {
      ASSERT_TRUE(result.status().IsCancelled()) << result.status();
      ++cancelled;
    }
  }
  // At least the first writer (admitted immediately) must complete; the
  // split of the rest depends on timing, but nothing may be lost.
  EXPECT_GE(completed, 1);
  EXPECT_EQ(completed + cancelled, 8);
}

TEST_F(SchedulerTest, SubmitAfterShutdownReturnsCleanError) {
  // The server path calls Submit() from connection handlers that can race
  // with Stop(): a post-shutdown Submit must fail with Unavailable, never
  // crash or hang.
  Scheduler scheduler(storage_.get(), Options(2));
  scheduler.Shutdown();
  auto handle = scheduler.Submit(*MakeScan("beta"));
  ASSERT_FALSE(handle.ok());
  EXPECT_TRUE(handle.status().IsUnavailable()) << handle.status();
}

TEST_F(SchedulerTest, ShutdownIsIdempotent) {
  Scheduler scheduler(storage_.get(), Options(2));
  ASSERT_OK_AND_ASSIGN(QueryHandle handle, scheduler.Submit(*MakeScan("beta")));
  EXPECT_TRUE(handle.Wait().ok());
  scheduler.Shutdown();
  scheduler.Shutdown();
  scheduler.Shutdown();
  EXPECT_TRUE(scheduler.Submit(*MakeScan("beta")).status().IsUnavailable());
}

TEST_F(SchedulerTest, ConcurrentShutdownCallsAllJoin) {
  // Several threads race Shutdown() while queries are in flight; every call
  // must block until the pool is actually down (a caller may destroy the
  // scheduler the moment its own Shutdown() returns).
  for (int round = 0; round < 10; ++round) {
    Scheduler scheduler(storage_.get(), Options(4));
    std::vector<QueryHandle> handles;
    for (int i = 0; i < 4; ++i) {
      auto h = scheduler.Submit(
          *MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(300))));
      ASSERT_TRUE(h.ok());
      handles.push_back(*std::move(h));
    }
    std::vector<std::thread> stoppers;
    for (int i = 0; i < 4; ++i) {
      stoppers.emplace_back([&scheduler] { scheduler.Shutdown(); });
    }
    for (auto& t : stoppers) t.join();
    // Every handle resolves: either the query drained or was cancelled.
    for (auto& h : handles) {
      auto result = h.Wait();
      EXPECT_TRUE(result.ok() || result.status().IsCancelled());
    }
  }
}

TEST_F(SchedulerTest, SnapshotMetricsExposesPoolAndQueueGauges) {
  Scheduler scheduler(storage_.get(), Options(3));
  ASSERT_OK_AND_ASSIGN(QueryHandle h, scheduler.Submit(*MakeScan("alpha")));
  ASSERT_TRUE(h.Wait().ok());
  scheduler.Shutdown();
  obs::MetricsRegistry registry;
  scheduler.SnapshotMetrics(&registry);
  EXPECT_EQ(registry.Get("engine.sched.submitted"), 1u);
  EXPECT_EQ(registry.Get("engine.sched.admitted"), 1u);
  EXPECT_EQ(registry.Get("engine.sched.completed"), 1u);
  EXPECT_EQ(registry.Get("engine.sched.queued"), 0u);
  EXPECT_EQ(registry.Get("engine.sched.cancelled"), 0u);
  EXPECT_EQ(registry.Get("engine.sched.active_queries"), 0u);
  EXPECT_EQ(registry.Get("engine.sched.queue_depth"), 0u);
  EXPECT_EQ(registry.Get("engine.sched.pool.workers"), 3u);
  EXPECT_GE(registry.Get("engine.sched.pool.peak_busy"), 1u);
}

TEST_F(SchedulerTest, QueueWaitIsMeasuredForQueuedQueries) {
  // Deferred start pins the admission outcome: the first writer is admitted
  // with zero queue wait, every later conflicting writer queues and must
  // report a positive wait.
  SchedulerOptions options;
  options.exec = Options(2);
  options.defer_worker_start = true;
  Scheduler scheduler(storage_.get(), options);
  auto writer = MakeAppend(
      MakeRestrict(MakeScan("beta"), Lt(Col("k1000"), Lit(100))), "alpha");
  ASSERT_OK_AND_ASSIGN(QueryHandle first, scheduler.Submit(*writer));
  std::vector<QueryHandle> rest;
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(QueryHandle h, scheduler.Submit(*writer));
    rest.push_back(std::move(h));
  }
  scheduler.Start();
  ASSERT_OK_AND_ASSIGN(QueryResult first_result, first.Wait());
  EXPECT_EQ(first_result.stats().sched.queued, 0u);
  EXPECT_EQ(first_result.stats().sched.queue_wait_ns, 0u);
  for (auto& h : rest) {
    ASSERT_OK_AND_ASSIGN(QueryResult r, h.Wait());
    EXPECT_EQ(r.stats().sched.queued, 1u);
    EXPECT_GT(r.stats().sched.queue_wait_ns, 0u);
    EXPECT_EQ(h.queue_wait_ns(), r.stats().sched.queue_wait_ns);
  }
  scheduler.Shutdown();
}

TEST_F(SchedulerTest, ThrottledScanStepsAreNotCountedAsTasks) {
  // A scan step that finds every memory cell occupied re-dispatches itself
  // and yields without reading a page. Only the steps that ran count as
  // executed tasks, so the count does not depend on the number of cells;
  // the yields are counted apart, and at one worker they follow the queue
  // order alone, so two runs count the same.
  StorageEngine storage(/*default_page_bytes=*/1000);
  ASSERT_OK_AND_ASSIGN(auto l, GenerateRelation(&storage, "left", 400, 3));
  ASSERT_OK_AND_ASSIGN(auto r, GenerateRelation(&storage, "right", 200, 4));
  (void)l;
  (void)r;
  auto plan = MakeUnion(MakeScan("left"), MakeScan("right"),
                        /*bag_semantics=*/true);
  const int cells[3] = {1, 1, 8};
  uint64_t tasks[3] = {0, 0, 0};
  uint64_t yields[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    ExecOptions opts = Options(1);
    opts.memory_cells_per_processor = cells[i];
    Scheduler scheduler(&storage, opts);
    ASSERT_OK_AND_ASSIGN(QueryHandle handle, scheduler.Submit(*plan));
    ASSERT_OK_AND_ASSIGN(QueryResult result, handle.Wait());
    scheduler.Shutdown();
    EXPECT_EQ(result.num_tuples(), 600u);
    tasks[i] = result.stats().tasks_executed;
    yields[i] = result.stats().scan_throttle_yields;
  }
  EXPECT_GT(tasks[0], 0u);
  EXPECT_EQ(tasks[0], tasks[1]);
  EXPECT_EQ(tasks[0], tasks[2]);
  EXPECT_GT(yields[0], 0u);
  EXPECT_EQ(yields[0], yields[1]);
  EXPECT_GT(yields[0], yields[2]);
}

TEST_F(SchedulerTest, MaterializedIntermediatesTravelByPointer) {
  // Every edge materialized, and half-size units: each base page is
  // repacked into pool frames, so every page the query produces,
  // intermediate or result, is a frame of the storage engine's pool.
  ExecOptions opts = Options(1);
  opts.page_bytes = 500;
  opts.pipeline = PipelinePolicy::kForceMaterialize;
  auto plan = MakeJoin(
      MakeProject(MakeScan("beta"), {"k100", "k10"}),
      MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(100))),
      Eq(Col("k100"), RightCol("k100")));
  const uint64_t written = storage_->page_store().stats().pages_written;
  Scheduler scheduler(storage_.get(), opts);
  ASSERT_OK_AND_ASSIGN(QueryHandle handle, scheduler.Submit(*plan));
  ASSERT_OK_AND_ASSIGN(QueryResult result, handle.Wait());
  scheduler.Shutdown();
  const FramePoolStats frames = storage_->frame_pool().stats();

  const ExecStats& stats = result.stats();
  EXPECT_EQ(stats.pipeline_materialized_edges, 2u);
  EXPECT_GT(stats.packets, 0u);
  // The intermediate pages never entered the store...
  EXPECT_EQ(storage_->page_store().stats().pages_written, written);
  // ...and each returned its frame once its last reader retired, so far
  // fewer frames were ever live at once than pages were produced.
  EXPECT_GT(frames.created, 0u);
  EXPECT_LT(frames.peak_live, stats.pages_produced);

  ReferenceExecutor reference(storage_.get());
  ASSERT_OK_AND_ASSIGN(QueryResult expected, reference.Execute(*plan));
  ExpectSameResult(expected, result);
}

}  // namespace
}  // namespace dfdb
