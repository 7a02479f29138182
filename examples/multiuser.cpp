/// \file multiuser.cpp
/// \brief Multi-query execution through the resident Scheduler.
///
/// Section 4.0, requirement 1: "a database machine ... must be able to
/// support the simultaneous execution of multiple queries from several
/// users ... This requires careful control of which queries are permitted
/// to execute concurrently."
///
/// This example submits a mixed stream — read-only analytics, an append
/// pipeline, and a delete — to a long-lived Scheduler: the master
/// controller admits non-conflicting queries onto one shared worker pool
/// and parks conflicting ones in its admission queue, re-admitting them as
/// the conflicts drain. Each handle reports how long its query waited.

#include <cstdio>

#include "engine/scheduler.h"
#include "storage/storage_engine.h"
#include "workload/generator.h"

using namespace dfdb;

int main() {
  StorageEngine storage(/*default_page_bytes=*/4096);
  for (const auto& [name, rows] :
       {std::pair<const char*, uint64_t>{"events", 3000}, {"users", 500}}) {
    auto id = GenerateRelation(&storage, name, rows, /*seed=*/11);
    if (!id.ok()) {
      std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
      return 1;
    }
  }
  // An initially empty archive relation the stream will write into.
  auto archive = storage.CreateRelation("archive", BenchmarkSchema());
  if (!archive.ok()) {
    std::fprintf(stderr, "%s\n", archive.status().ToString().c_str());
    return 1;
  }

  // The stream:
  //   A: analytics join (reads events, users)
  //   B: archive recent events (reads events, WRITES archive)
  //   C: aggregate over users (reads users)
  //   D: purge archived rows (WRITES archive) — conflicts with B, so the
  //      MC queues it and re-admits it when B completes.
  auto query_a =
      MakeJoin(MakeRestrict(MakeScan("events"), Lt(Col("k1000"), Lit(100))),
               MakeScan("users"), Eq(Col("k100"), RightCol("k100")));
  auto query_b = MakeAppend(
      MakeRestrict(MakeScan("events"), Ge(Col("k1000"), Lit(900))), "archive");
  std::vector<AggregateSpec> specs;
  specs.push_back({AggregateSpec::Func::kCount, "", "cnt"});
  specs.push_back({AggregateSpec::Func::kAvg, "val", "mean_val"});
  auto query_c = MakeAggregate(MakeScan("users"), {"k10"}, specs);
  auto query_d = MakeDelete("archive", Lt(Col("k2"), Lit(1)));

  SchedulerOptions options;
  options.exec.granularity = Granularity::kPage;
  options.exec.num_processors = 4;
  options.exec.page_bytes = 4096;
  Scheduler scheduler(&storage, std::move(options));

  // Submit the whole stream up front — in a real service each of these
  // would arrive from a different client thread. No caller retry loops:
  // the admission queue owns conflict resolution.
  const PlanNode* plans[] = {query_a.get(), query_b.get(), query_c.get(),
                             query_d.get()};
  const char* names[] = {"A (join)", "B (append)", "C (aggregate)",
                         "D (delete)"};
  std::vector<QueryHandle> handles;
  for (const PlanNode* plan : plans) {
    auto handle = scheduler.Submit(*plan);
    if (!handle.ok()) {
      std::fprintf(stderr, "submit: %s\n", handle.status().ToString().c_str());
      return 1;
    }
    handles.push_back(*std::move(handle));
  }

  std::vector<QueryResult> results;
  for (size_t i = 0; i < handles.size(); ++i) {
    auto result = handles[i].Wait();
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", names[i],
                   result.status().ToString().c_str());
      return 1;
    }
    results.push_back(*std::move(result));
  }

  std::printf("A (join):       %llu tuples\n",
              static_cast<unsigned long long>(results[0].num_tuples()));
  std::printf("B (append):     side effect on 'archive'\n");
  std::printf("C (aggregate):  %llu groups\n",
              static_cast<unsigned long long>(results[2].num_tuples()));
  std::printf("D (delete):     side effect on 'archive'\n");

  auto meta = storage.catalog().GetRelation("archive");
  if (meta.ok()) {
    std::printf("archive now holds %llu tuples (k1000>=900 minus k2=0)\n",
                static_cast<unsigned long long>(meta->tuple_count));
  }

  // Per-query admission stats: D conflicted with B on 'archive', so it is
  // the one that shows a queue wait.
  std::printf("\nqueue waits:\n");
  for (size_t i = 0; i < handles.size(); ++i) {
    const ExecStats& qs = results[i].stats();
    std::printf("  %-14s %s, waited %.3f ms (requeues: %llu)\n", names[i],
                qs.sched.queued ? "queued " : "admitted",
                static_cast<double>(qs.sched.queue_wait_ns) / 1e6,
                static_cast<unsigned long long>(qs.sched.requeues));
  }

  ExecStats totals = scheduler.AggregateStats();
  std::printf("\nScheduler totals: %s\n", totals.ToString().c_str());
  std::printf("Join query alone: %.3fs, %llu pages\n",
              results[0].stats().wall_seconds,
              static_cast<unsigned long long>(
                  results[0].stats().pages_produced));
  return 0;
}
