/// \file bench_distributed_join.cc
/// \brief Scale-out shuffle bench: the distributed hash join across
/// in-process worker clusters at increasing worker counts.
///
/// For each worker count the bench stands up a full cluster (N
/// net::Server processes-in-miniature, each holding its hash slice of the
/// paper database, plus a dist::Coordinator) and runs a shuffle-heavy
/// join/aggregate mix. Three invariants are asserted, not just printed:
///
///  - **Hash identity.** The FNV multiset hash of every query's result is
///    identical at every worker count — partitioned execution must not
///    change a single result byte (aggregates use integer columns only,
///    so no float-association caveats).
///  - **Work scale-out.** `speedup_compute_x` divides the single-worker
///    count of join page pairs (one outer page probed against one inner
///    page, the unit of the paper's page-level join) by the busiest
///    worker's count at N workers — the critical-path compute reduction
///    that becomes wall-clock speedup on real hardware (this container may
///    have one core, so wall time alone cannot show scale-out; it is
///    reported honestly alongside). Hash partitioning splits both inputs of
///    a shuffled join, so a balanced split cuts each worker's pairs by up
///    to N^2. The pages each worker's joins see are fixed by the
///    partitioning, so the figure repeats exactly from run to run; engine
///    task counts would not (a parked outer page counts a task again each
///    time it resumes, which follows thread interleaving). The bench fails
///    below --min-speedup (default 7.30, the figure at the default
///    --scale=0.5 and 3 workers). The figure grows with scale, as partial
///    pages weigh less (4.75 at 0.25, 8.36 at 1), so pass --min-speedup
///    along with another --scale.
///  - **Ring comparability.** The same query mix runs on the simulator at
///    matching IP counts; the simulated outer-ring bandwidth (Fig 4.2's
///    measurement) lands in one table next to the real coordinator-star
///    shuffle bandwidth, since the coordinator star is the outer ring made
///    explicit.
///
///   bench_distributed_join --scale=0.5 --workers=3 --reps=3

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "dist/coordinator.h"
#include "machine/simulator.h"
#include "net/server.h"
#include "ra/parser.h"

namespace dfdb {
namespace {

/// A representative scale-out mix: shuffled hash joins and aggregates on
/// fine-grained keys (k1000 — coarse keys like k100 quantize 100 values
/// over N buckets and the join output per value is quadratic in per-value
/// counts, so they skew), one co-partitioned join on the placement key
/// (no shuffle at all), and one local scan/project.
const char* const kQueries[] = {
    "join(restrict(r01, k1000 < 400), restrict(r06, k1000 < 700), "
    "k1000 = right.k1000)",
    "join(r01, r02, id = right.id)",
    "project(restrict(r01, k1000 < 500), [id, k100, k1000])",
    "agg(r01, [k1000], [count() as n, sum(k5) as s])",
    "agg(join(restrict(r03, k1000 < 500), r08, k1000 = right.k1000), [k10], "
    "[count() as n, sum(k25) as s])",
};

uint64_t Fnv64(const char* data, size_t len, uint64_t h) {
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Order-insensitive result fingerprint: XOR of per-tuple FNV hashes,
/// folded with the row count and tuple width.
uint64_t MultisetHash(const net::RemoteResult& result) {
  const int width = result.schema.tuple_width();
  uint64_t h = 0;
  if (width > 0) {
    for (size_t off = 0; off + static_cast<size_t>(width) <=
                         result.tuples.size();
         off += static_cast<size_t>(width)) {
      h ^= Fnv64(result.tuples.data() + off, static_cast<size_t>(width),
                 0xcbf29ce484222325ULL);
    }
  }
  h = Fnv64(reinterpret_cast<const char*>(&result.num_tuples), 8, h + 1);
  return h;
}

struct ClusterRun {
  double wall_s = 0;
  uint64_t bytes_shuffled = 0;
  uint64_t batches = 0;
  uint64_t max_worker_page_pairs = 0;
  std::vector<uint64_t> hashes;
  obs::MetricsRegistry metrics;
};

StatusOr<ClusterRun> RunCluster(int workers, double scale, int procs,
                                int reps) {
  std::vector<std::unique_ptr<StorageEngine>> storages;
  std::vector<std::unique_ptr<net::Server>> servers;
  std::vector<dist::WorkerAddress> addrs;
  for (int w = 0; w < workers; ++w) {
    auto storage = std::make_unique<StorageEngine>(16384);
    DFDB_RETURN_IF_ERROR(
        BuildPartitionedPaperDatabase(storage.get(), w, workers, scale)
            .status());
    net::ServerOptions options;
    options.port = 0;
    options.scheduler.exec.num_processors = procs;
    auto server =
        std::make_unique<net::Server>(storage.get(), std::move(options));
    DFDB_RETURN_IF_ERROR(server->Start());
    addrs.push_back(dist::WorkerAddress{"127.0.0.1", server->port()});
    storages.push_back(std::move(storage));
    servers.push_back(std::move(server));
  }
  Catalog catalog;
  DFDB_RETURN_IF_ERROR(BuildPaperCatalog(&catalog, scale));
  dist::CoordinatorOptions options;
  options.workers = std::move(addrs);
  options.partition_column = std::string(kPartitionColumn);
  dist::Coordinator coordinator(&catalog, std::move(options));
  DFDB_RETURN_IF_ERROR(coordinator.Connect());

  ClusterRun out;
  // Warm-up pass collects the result fingerprints.
  for (const char* text : kQueries) {
    DFDB_ASSIGN_OR_RETURN(net::RemoteResult result,
                          coordinator.Execute(text));
    out.hashes.push_back(MultisetHash(result));
  }
  const uint64_t micros_before =
      coordinator.counters().shuffle_micros.load();
  for (int rep = 0; rep < reps; ++rep) {
    for (const char* text : kQueries) {
      DFDB_ASSIGN_OR_RETURN(net::RemoteResult result,
                            coordinator.Execute(text));
      out.bytes_shuffled += result.counters["dist.bytes_shuffled"];
      out.batches += result.counters["dist.batches_routed"];
      out.max_worker_page_pairs +=
          result.counters["dist.worker_page_pairs_max"];
    }
  }
  out.wall_s = static_cast<double>(coordinator.counters().shuffle_micros.load() -
                                   micros_before) /
               1e6;
  coordinator.SnapshotMetrics(&out.metrics);
  for (auto& server : servers) {
    server->SnapshotMetrics(&out.metrics);
    server->Stop();
  }
  return out;
}

int Main(int argc, char** argv) {
  const double scale = bench::FlagDouble(argc, argv, "scale", 0.5);
  const int max_workers = bench::FlagInt(argc, argv, "workers", 3);
  const int procs = bench::FlagInt(argc, argv, "procs", 2);
  const int reps = bench::FlagInt(argc, argv, "reps", 3);
  const double min_speedup =
      bench::FlagDouble(argc, argv, "min-speedup", 7.30);

  std::printf("== DIST: partitioned hash join across worker clusters ==\n");
  bench::Table table({"workers", "wall_s", "speedup_wall_x",
                      "speedup_compute_x", "shuffle_MB", "batches",
                      "max_worker_pairs"});

  std::vector<int> counts = {1};
  if (max_workers > 1) counts.push_back(max_workers);
  if (max_workers > 2) counts.insert(counts.begin() + 1, 2);

  double wall_1 = 0;
  uint64_t pairs_1 = 0;
  std::vector<uint64_t> hashes_1;
  double headline_wall = 0;
  double headline_compute = 0;
  ClusterRun headline_run;
  for (int workers : counts) {
    auto run = RunCluster(workers, scale, procs, reps);
    DFDB_CHECK(run.ok()) << run.status();
    if (workers == 1) {
      wall_1 = run->wall_s;
      pairs_1 = run->max_worker_page_pairs;
      hashes_1 = run->hashes;
    } else {
      // Hash identity: partitioning must not change one result byte.
      DFDB_CHECK(run->hashes == hashes_1)
          << "result hash mismatch at " << workers << " workers";
    }
    const double speedup_wall =
        run->wall_s > 0 ? wall_1 / run->wall_s : 0;
    // A ratio of whole counts, kept to six decimals so it stays exact in
    // results/baselines.json too.
    const double speedup_compute =
        run->max_worker_page_pairs > 0
            ? std::round(1e6 * static_cast<double>(pairs_1) /
                         static_cast<double>(run->max_worker_page_pairs)) /
                  1e6
            : 0;
    table.AddRow({StrFormat("%d", workers), StrFormat("%.3f", run->wall_s),
                  StrFormat("%.2f", speedup_wall),
                  StrFormat("%.2f", speedup_compute),
                  StrFormat("%.2f", static_cast<double>(run->bytes_shuffled) /
                                        1e6),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(run->batches)),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        run->max_worker_page_pairs))});
    if (workers == max_workers) {
      headline_wall = speedup_wall;
      headline_compute = speedup_compute;
      headline_run = std::move(*run);
    }
  }
  table.Print("dist_join");

  // The simulator's Fig 4.2 outer-ring measurement over the same query
  // mix at matching IP counts, next to the real coordinator-star shuffle
  // bandwidth: the same shared-path quantity, simulated and measured.
  StorageEngine full(16384);
  bench::BuildDatabaseOrDie(&full, scale);
  std::vector<PlanNodePtr> roots;
  std::vector<const PlanNode*> plans;
  for (const char* text : kQueries) {
    auto parsed = ParseQuery(text);
    DFDB_CHECK(parsed.ok()) << parsed.status();
    plans.push_back(parsed->get());
    roots.push_back(std::move(*parsed));
  }
  bench::Table ring({"workers", "real_shuffle_mbps", "sim_outer_ring_mbps"});
  const double real_mbps =
      headline_run.wall_s > 0
          ? static_cast<double>(headline_run.bytes_shuffled) * 8.0 / 1e6 /
                headline_run.wall_s
          : 0;
  for (int workers : counts) {
    MachineOptions opts;
    opts.granularity = Granularity::kPage;
    opts.config.num_instruction_processors = workers;
    opts.config.page_bytes = 16384;
    MachineSimulator sim(&full, opts);
    auto report = sim.Run(plans);
    DFDB_CHECK(report.ok()) << report.status();
    ring.AddRow({StrFormat("%d", workers),
                 workers == max_workers ? StrFormat("%.3f", real_mbps) : "-",
                 StrFormat("%.3f", report->OuterRingBps() / 1e6)});
    if (workers == max_workers) {
      obs::RunReport run = report->ToReport();
      run.label = StrFormat("sim ips=%d", workers);
      bench::JsonReport::Global().AddRunReport(run);
    }
  }
  ring.Print("dist_vs_sim_ring");

  // Headline gauges + the full dist.*/net.exchange.* counter registry.
  obs::RunReport report;
  report.backend = "engine";
  report.label = StrFormat("dist workers=%d", max_workers);
  report.seconds = headline_run.wall_s;
  report.data_bytes = headline_run.bytes_shuffled;
  report.packets = headline_run.batches;
  report.counters = std::move(headline_run.metrics);
  report.gauges["dist.join.workers"] = max_workers;
  report.gauges["dist.join.speedup_wall_x"] = headline_wall;
  report.gauges["dist.join.speedup_compute_x"] = headline_compute;
  report.gauges["dist.join.shuffle_mbit_s"] = real_mbps;
  bench::JsonReport::Global().AddRunReport(report);

  std::printf(
      "# speedup at %d workers: compute %.6fx (critical-path join page "
      "pairs), wall %.2fx\n",
      max_workers, headline_compute, headline_wall);
  bench::WriteJson("bench_distributed_join", argc, argv);
  if (max_workers > 1 && headline_compute < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: compute speedup %.2fx below required %.2fx\n",
                 headline_compute, min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dfdb

int main(int argc, char** argv) { return dfdb::Main(argc, argv); }
