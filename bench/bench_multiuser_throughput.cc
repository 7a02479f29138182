/// \file bench_multiuser_throughput.cc
/// \brief Multi-user throughput: MVCC snapshot reads vs barrier admission
/// vs pool-per-query.
///
/// Section 4.0, requirement 1: the master controller must "support the
/// simultaneous execution of multiple queries from several users". This
/// bench replays a mixed reader/writer query stream from several client
/// threads under the three execution regimes the repo has grown through:
///
///   per_query         — the historical model: each query stands up its own
///       worker pool via RunQuery, with the callers spinning on the
///       ConflictManager themselves ("the caller's responsibility").
///   resident_barrier  — one long-lived Scheduler with the legacy S/X
///       admission: every reader of a written relation queues behind the
///       writer.
///   resident_snapshot — the same Scheduler under MVCC snapshot reads (the
///       default): readers are stamped with an immutable Snapshot at
///       admission and never queue; the admission queue arbitrates
///       writer–writer conflicts only.
///
/// The stream is constructed so reader results are a database invariant:
/// writers only touch k1000 >= 900 rows of r14, every reader restricts
/// r14 below that. The bench hashes all reader results per mode and checks
/// the three modes return byte-identical reader bytes — snapshot reads may
/// not change answers, only waiting. It also asserts that under
/// resident_snapshot no reader ever queued.
///
/// All regimes run the identical stream against an identically seeded
/// fresh database, so queries/sec is directly comparable. Results report
/// through the shared RunReport JSON path (`--json=PATH`).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "engine/concurrency.h"
#include "engine/run.h"
#include "engine/scheduler.h"
#include "ra/analyzer.h"

namespace dfdb {
namespace {

/// One entry of the benchmark stream: a plan template plus its admission
/// sets (pre-analyzed once against a throwaway catalog-equivalent storage).
struct StreamQuery {
  PlanNodePtr plan;
  std::set<std::string> read_set;
  std::set<std::string> write_set;
  bool is_writer = false;
};

/// Builds the mixed stream. Every fourth slot is a writer on r14 touching
/// only k1000 >= 900 (alternating appends of r10 rows with k1000 >= 950
/// and deletes of the k1000 >= 900 region); every other fourth slot is a
/// dedicated r14 reader restricted to k1000 < 300 (the contended
/// reader–writer pair); the rest cycle the ten paper benchmark readers,
/// whose r14 scans are likewise restricted below 300.
std::vector<StreamQuery> BuildStream(int total, StorageEngine* storage) {
  std::vector<Query> readers = MakePaperBenchmarkQueries();
  std::vector<StreamQuery> stream;
  stream.reserve(static_cast<size_t>(total));
  Analyzer analyzer(&storage->catalog());
  size_t reader_cursor = 0;
  for (int i = 0; i < total; ++i) {
    StreamQuery sq;
    if (i % 4 == 3) {
      sq.is_writer = true;
      if (i % 8 == 3) {
        sq.plan = MakeAppend(
            MakeRestrict(MakeScan("r10"), Ge(Col("k1000"), Lit(950))), "r14");
      } else {
        sq.plan = MakeDelete("r14", Ge(Col("k1000"), Lit(900)));
      }
    } else if (i % 4 == 1) {
      sq.plan = MakeRestrict(MakeScan("r14"), Lt(Col("k1000"), Lit(300)));
    } else {
      sq.plan = readers[reader_cursor % readers.size()].root->Clone();
      ++reader_cursor;
    }
    auto analysis = analyzer.Resolve(sq.plan.get());
    DFDB_CHECK(analysis.ok()) << analysis.status();
    sq.read_set = std::move(analysis->read_set);
    sq.write_set = std::move(analysis->write_set);
    stream.push_back(std::move(sq));
  }
  return stream;
}

/// Order-independent fingerprint of one result: FNV-1a over the sorted
/// multiset of raw tuple bytes (engines may emit pages in any order).
uint64_t HashResult(const QueryResult& result) {
  std::vector<std::string> tuples;
  (void)result.ForEachTuple([&](const TupleView& t) -> Status {
    tuples.emplace_back(t.raw().data(), t.raw().size());
    return Status::OK();
  });
  std::sort(tuples.begin(), tuples.end());
  uint64_t h = 1469598103934665603ull;
  for (const std::string& t : tuples) {
    for (char c : t) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= 0xffu;  // Tuple separator.
    h *= 1099511628211ull;
  }
  return h;
}

/// Combines per-index reader hashes in stream order (the stream index
/// identifies the query regardless of which client thread ran it).
uint64_t CombineReaderHashes(const std::vector<uint64_t>& per_index) {
  uint64_t h = 1469598103934665603ull;
  for (uint64_t x : per_index) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

struct ModeResult {
  double wall_seconds = 0;
  double qps = 0;
  /// Admission-queue entries (resident modes) or spin retries (per_query),
  /// split by the stream's reader/writer flag.
  uint64_t reader_queued = 0;
  uint64_t writer_queued = 0;
  uint64_t queue_wait_ns = 0;
  uint64_t reader_hash = 0;
  obs::RunReport report;
};

/// Pool-per-query baseline: clients pull stream indices from a shared
/// cursor, spin on the ConflictManager until admitted, and run each query
/// through RunQuery — which builds and tears down a worker pool per call,
/// exactly as pre-scheduler callers did.
ModeResult RunPerQuery(StorageEngine* storage,
                       const std::vector<StreamQuery>& stream,
                       const ExecOptions& opts, int clients) {
  ConflictManager conflicts;
  std::atomic<size_t> cursor{0};
  std::vector<uint64_t> retries(stream.size(), 0);
  std::vector<uint64_t> hashes(stream.size(), 0);
  std::vector<ExecStats> per_query(stream.size());
  std::vector<Status> statuses(stream.size(), Status::OK());

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      for (size_t i = cursor.fetch_add(1); i < stream.size();
           i = cursor.fetch_add(1)) {
        const StreamQuery& sq = stream[i];
        const uint64_t qid = static_cast<uint64_t>(i) + 1;
        while (!conflicts.TryAdmit(qid, sq.read_set, sq.write_set)) {
          ++retries[i];
          std::this_thread::yield();
        }
        auto result = RunQuery(storage, *sq.plan, opts, &per_query[i]);
        conflicts.Release(qid);
        statuses[i] = result.status();
        if (result.ok() && !sq.is_writer) hashes[i] = HashResult(*result);
      }
    });
  }
  for (auto& t : pool) t.join();
  const auto end = std::chrono::steady_clock::now();

  ModeResult out;
  ExecStats sum;
  for (size_t i = 0; i < stream.size(); ++i) {
    DFDB_CHECK(statuses[i].ok()) << "query " << i << ": " << statuses[i];
    sum.tasks_executed += per_query[i].tasks_executed;
    sum.packets += per_query[i].packets;
    sum.arbitration_bytes += per_query[i].arbitration_bytes;
    sum.distribution_bytes += per_query[i].distribution_bytes;
    sum.overhead_bytes += per_query[i].overhead_bytes;
    sum.pages_produced += per_query[i].pages_produced;
    sum.tuples_produced += per_query[i].tuples_produced;
    sum.mvcc.snapshots_captured += per_query[i].mvcc.snapshots_captured;
    sum.mvcc.pages_copied += per_query[i].mvcc.pages_copied;
    sum.mvcc.gc_reclaimed += per_query[i].mvcc.gc_reclaimed;
    sum.mvcc.commits += per_query[i].mvcc.commits;
    sum.mvcc.versions_live = per_query[i].mvcc.versions_live;
    out.reader_queued += stream[i].is_writer ? 0 : retries[i];
    out.writer_queued += stream[i].is_writer ? retries[i] : 0;
  }
  out.wall_seconds = std::chrono::duration<double>(end - start).count();
  sum.wall_seconds = out.wall_seconds;
  out.qps = static_cast<double>(stream.size()) / out.wall_seconds;
  out.reader_hash = CombineReaderHashes(hashes);
  out.report = sum.ToReport();
  return out;
}

/// Resident-scheduler modes: the same clients Submit() into one long-lived
/// pool; the MC admission queue replaces the callers' spin loops. \p mode
/// selects MVCC snapshot reads (readers never queue) or the legacy barrier
/// regime (relation-level S/X admission).
ModeResult RunResident(StorageEngine* storage,
                       const std::vector<StreamQuery>& stream,
                       const ExecOptions& opts, int clients,
                       ConcurrencyMode mode) {
  SchedulerOptions sched_opts;
  sched_opts.exec = opts;
  sched_opts.concurrency = mode;
  Scheduler scheduler(storage, std::move(sched_opts));
  std::atomic<size_t> cursor{0};
  std::vector<uint64_t> queued(stream.size(), 0);
  std::vector<uint64_t> hashes(stream.size(), 0);
  std::vector<Status> statuses(stream.size(), Status::OK());
  std::atomic<uint64_t> queue_wait_ns{0};

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      for (size_t i = cursor.fetch_add(1); i < stream.size();
           i = cursor.fetch_add(1)) {
        auto handle = scheduler.Submit(*stream[i].plan);
        if (!handle.ok()) {
          statuses[i] = handle.status();
          continue;
        }
        auto result = handle->Wait();
        statuses[i] = result.status();
        queue_wait_ns.fetch_add(handle->queue_wait_ns(),
                                std::memory_order_relaxed);
        if (result.ok()) {
          queued[i] = result->stats().sched.queued;
          if (!stream[i].is_writer) hashes[i] = HashResult(*result);
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  const auto end = std::chrono::steady_clock::now();

  ModeResult out;
  out.wall_seconds = std::chrono::duration<double>(end - start).count();
  out.qps = static_cast<double>(stream.size()) / out.wall_seconds;
  out.queue_wait_ns = queue_wait_ns.load();
  for (size_t i = 0; i < stream.size(); ++i) {
    out.reader_queued += stream[i].is_writer ? 0 : queued[i];
    out.writer_queued += stream[i].is_writer ? queued[i] : 0;
  }
  out.reader_hash = CombineReaderHashes(hashes);

  ExecStats agg = scheduler.AggregateStats();
  agg.wall_seconds = out.wall_seconds;
  out.report = agg.ToReport();
  for (const Status& s : statuses) DFDB_CHECK(s.ok()) << s;
  scheduler.Shutdown();
  return out;
}

int Main(int argc, char** argv) {
  const double scale = bench::FlagDouble(argc, argv, "scale", 0.5);
  const int total = bench::FlagInt(argc, argv, "queries", 40);
  const int clients = bench::FlagInt(argc, argv, "clients", 8);
  const int procs = bench::FlagInt(argc, argv, "procs", 8);
  DFDB_CHECK(total >= 16) << "need a >=16-query stream for a meaningful mix";

  std::printf("== multi-user throughput: snapshot vs barrier vs "
              "pool-per-query ==\n");
  std::printf("# stream: %d queries (every 4th a writer, every 4th an r14 "
              "reader), %d clients, %d processors\n", total, clients, procs);

  ExecOptions opts;
  opts.granularity = Granularity::kPage;
  opts.num_processors = procs;

  bench::Table table({"mode", "wall_s", "qps", "reader_queued",
                      "writer_queued", "avg_queue_wait_ms", "reader_hash"});
  bench::RunTable runs({"mode"});
  constexpr int kNumModes = 3;
  ModeResult results[kNumModes];
  const char* kModes[kNumModes] = {"per_query", "resident_barrier",
                                   "resident_snapshot"};
  for (int m = 0; m < kNumModes; ++m) {
    // Fresh, identically seeded database per mode: writers mutate r14, so
    // reusing one database would hand the next mode a different input.
    StorageEngine storage(/*default_page_bytes=*/16384);
    bench::BuildDatabaseOrDie(&storage, scale);
    std::vector<StreamQuery> stream = BuildStream(total, &storage);
    switch (m) {
      case 0:
        results[m] = RunPerQuery(&storage, stream, opts, clients);
        break;
      case 1:
        results[m] = RunResident(&storage, stream, opts, clients,
                                 ConcurrencyMode::kBarrier);
        break;
      default:
        results[m] = RunResident(&storage, stream, opts, clients,
                                 ConcurrencyMode::kSnapshot);
        break;
    }
    const ModeResult& r = results[m];
    const double avg_wait_ms =
        r.queue_wait_ns > 0
            ? static_cast<double>(r.queue_wait_ns) / 1e6 / total
            : 0.0;
    table.AddRow({kModes[m], StrFormat("%.3f", r.wall_seconds),
                  StrFormat("%.2f", r.qps),
                  StrFormat("%llu", static_cast<unsigned long long>(r.reader_queued)),
                  StrFormat("%llu", static_cast<unsigned long long>(r.writer_queued)),
                  StrFormat("%.3f", avg_wait_ms),
                  StrFormat("%016llx", static_cast<unsigned long long>(r.reader_hash))});
    obs::RunReport run = r.report;
    run.label = StrFormat("%s c=%d p=%d", kModes[m], clients, procs);
    run.counters.Set("multiuser.reader_result_hash", r.reader_hash);
    run.counters.Set("multiuser.reader_queued", r.reader_queued);
    run.counters.Set("multiuser.writer_queued", r.writer_queued);
    runs.Add({kModes[m]}, run);
  }
  table.Print("multiuser_throughput");
  runs.Print("multiuser_runs");

  // The MVCC contract, checked on every run: snapshot-mode readers are
  // admitted immediately, and no regime changes reader bytes.
  DFDB_CHECK(results[2].reader_queued == 0)
      << "snapshot mode queued a reader";
  DFDB_CHECK(results[0].reader_hash == results[1].reader_hash &&
             results[1].reader_hash == results[2].reader_hash)
      << "reader results diverged across concurrency modes";

  std::printf("# resident_snapshot/per_query qps: %.2fx\n",
              results[2].qps / results[0].qps);
  std::printf("# resident_snapshot/resident_barrier qps: %.2fx\n",
              results[2].qps / results[1].qps);

  bench::WriteJson("bench_multiuser_throughput", argc, argv);
  return 0;
}

}  // namespace
}  // namespace dfdb

int main(int argc, char** argv) { return dfdb::Main(argc, argv); }
