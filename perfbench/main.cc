/// \file main.cc
/// \brief The benchmark binary: sets a workload up several times, runs it
/// closed-loop for a fixed time, checks it, and prints one JSON result.
///
///   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
///                    [--fig31=...] [--git-sha=...] [--trace-out=PATH]
///
/// The last stdout line is {"correct", "attempted", "failed", "metrics"}:
/// the end-to-end metrics untraced, the per-layer metrics traced. Lines
/// before it start with '#' and carry diagnostics: the host fingerprint,
/// host-speed probes, busy cores, latency tails with sample counts.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "common/string_util.h"
#include "harness.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Set-ups per run: at least kMinSetups, then more while they have taken
/// less than kSetupBudgetS in total, up to kMaxSetups. setup_s is their
/// median, so a short set-up gets more samples.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupBudgetS = 1.5;
/// Chunks the timed phase is cut into for ops_per_s and cpu_ms_per_op,
/// which are the medians over chunks.
constexpr int kChunks = 15;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"cpu_ms_per_op", "ms"},
    {"peak_rss_mb", "MB"},
    {"primary_p50_ms", "ms"},
    {"secondary_p50_ms", "ms"},
};

/// Every per-layer metric; a workload that does not reach a layer reports
/// 0 for its metrics.
constexpr MetricDef kPerLayer[] = {
    {"net.outside_engine_ms_p50", "ms"},
    {"net.bytes_in_per_op", "B"},
    {"net.bytes_out_per_op", "B"},
    {"net.self_ms_per_op", "ms"},
    {"ra.parse_us_p50", "us"},
    {"ra.optimize_us_p50", "us"},
    {"ra.scans_pushdown", "count"},
    {"ra.scans_gridfile", "count"},
    {"ra.edges_fused", "count"},
    {"engine.server_ms_p50", "ms"},
    {"engine.writer_queue_wait_ms_mean", "ms"},
    {"engine.submit_us_p50", "us"},
    {"engine.query_ms_p50", "ms"},
    {"engine.tasks_per_packet", "ratio"},
    {"engine.pipeline_pages_elided_per_op", "count"},
    {"engine.self_ms_per_op", "ms"},
    {"operators.hash_joins_per_op", "count"},
    {"operators.nested_joins_per_op", "count"},
    {"operators.compiled_pages_per_op", "count"},
    {"operators.interpreted_pages_per_op", "count"},
    {"storage.cache_hit_ratio", "ratio"},
    {"storage.disk_reads_per_op", "count"},
    {"storage.pushdown_survivor_ratio", "ratio"},
    {"storage.pushdown_bytes_elided_per_op", "B"},
    {"storage.mvcc_pages_copied_per_write", "count"},
    {"index.pages_pruned_ratio", "ratio"},
    {"index.build_s", "s"},
    {"machine.run_ms_p50", "ms"},
    {"machine.events_per_s", "1/s"},
    {"machine.events_per_batch", "count"},
    {"machine.instruction_packets_per_batch", "count"},
    {"machine.outer_ring_bytes_per_batch", "B"},
    {"workload.build_s", "s"},
    {"trace.primary_p50_ms", "ms"},
    {"trace.ops_per_s", "1/s"},
};

std::string Flag(int argc, char** argv, const char* name, const char* def) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return def;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  const std::string workload = Flag(argc, argv, "workload", "");
  const double seconds = std::atof(Flag(argc, argv, "seconds", "10").c_str());
  const bool traced = Flag(argc, argv, "trace", "0") == "1";
  SpanRecorder spans(traced);
  RunContext ctx;
  ctx.seed = std::strtoull(Flag(argc, argv, "seed", "1").c_str(), nullptr, 10);
  ctx.spans = &spans;
  ctx.fig31 = Flag(argc, argv, "fig31", "");

  std::unique_ptr<Workload> w;
  if (workload == "wire_mix") w = MakeWireMix(ctx);
  if (workload == "paper10_engine") w = MakePaper10Engine(ctx);
  if (workload == "events_scan") w = MakeEventsScan(ctx);
  if (w == nullptr || seconds <= 0) {
    std::fprintf(stderr, "usage: perfbench --workload=wire_mix|"
                         "paper10_engine|events_scan "
                         "--seed=N --seconds=S --trace=0|1\n");
    return 2;
  }

  const dfdb::Status prepared = w->Prepare();
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", prepared.ToString().c_str());
    return 1;
  }
  std::vector<double> setup_s;
  double setup_total_s = 0;
  for (int i = 0; i < kMaxSetups &&
                  (i < kMinSetups || setup_total_s < kSetupBudgetS);
       ++i) {
    const auto t0 = Clock::now();
    const dfdb::Status s = w->Setup();
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 1;
    }
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
    setup_total_s += setup_s.back();
  }

  const double probe_before = HostSpeedProbeMs();
  OpLog log;
  CpuSampler sampler;
  const uint64_t faults0 = MinorFaults();
  const double cpu0 = ProcessCpuSeconds();
  const auto t0 = Clock::now();
  w->Run(t0 + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6)),
         &log);
  const auto t1 = Clock::now();
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const uint64_t faults = MinorFaults() - faults0;
  sampler.Stop();
  const ChunkRates chunks = ChunkedRates(log.done_ns, NsOf(t0), sampler,
                                         kChunks);
  const double probe_after = HostSpeedProbeMs();
  const double wall_s = MsBetween(t0, t1) / 1e3;

  const double peak_rss_mb = PeakRssMb();
  Report report;
  w->Finish(log, &report);

  const int nproc = HostProcessors();
  const double busy = cpu_s / wall_s;
  if (busy > nproc / 2.0) {
    report.failures.push_back(
        dfdb::StrFormat("busy cores %.2f above nproc/2 = %.1f", busy,
                        nproc / 2.0));
  }
  if (log.primary_ms.empty() || log.secondary_ms.empty()) {
    report.failures.push_back("an op class completed no ops");
  }

  const LatencySummary primary = Summarize(log.primary_ms);
  const LatencySummary secondary = Summarize(log.secondary_ms);
  const double ops = static_cast<double>(log.attempted);
  const double ops_per_s = Median(chunks.ops_per_s);

  std::vector<std::pair<const MetricDef*, double>> metrics;
  if (!traced) {
    std::vector<double> sorted = setup_s;
    std::sort(sorted.begin(), sorted.end());
    const double values[] = {Percentile(sorted, 0.5), ops_per_s,
                             Median(chunks.cpu_ms_per_op), peak_rss_mb,
                             primary.p50, secondary.p50};
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.push_back({&kEndToEnd[i], values[i]});
    }
  } else {
    const std::map<std::string, int64_t> self = LayerSelfTimeNs(spans.Spans());
    for (const char* layer : {"net", "engine"}) {
      auto it = self.find(layer);
      report.layer[std::string(layer) + ".self_ms_per_op"] =
          it == self.end() ? 0 : static_cast<double>(it->second) / 1e6 / ops;
    }
    for (const auto& [layer, ns] : self) {
      report.notes.push_back(dfdb::StrFormat(
          "self_time layer=%s ms_per_op=%.4f", layer.c_str(),
          static_cast<double>(ns) / 1e6 / ops));
    }
    report.layer["trace.primary_p50_ms"] = primary.p50;
    report.layer["trace.ops_per_s"] = ops_per_s;
    std::set<std::string> known;
    for (const MetricDef& m : kPerLayer) {
      known.insert(m.name);
      auto it = report.layer.find(m.name);
      metrics.push_back({&m, it == report.layer.end() ? 0.0 : it->second});
    }
    for (const auto& [name, value] : report.layer) {
      if (known.count(name) == 0) {
        report.failures.push_back("unlisted per-layer metric " + name);
      }
    }
    const std::string out = Flag(argc, argv, "trace-out", "");
    if (!out.empty() && !spans.WriteJson(out)) {
      report.failures.push_back("cannot write spans to " + out);
    }
  }

  std::printf("# workload=%s seed=%llu seconds=%.1f trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(ctx.seed),
              seconds, traced ? 1 : 0);
  std::printf("# host nproc=%d compiler=%s build=%s git=%s\n", nproc,
              CompilerId().c_str(), BuildType().c_str(),
              Flag(argc, argv, "git-sha", "unknown").c_str());
  std::printf("# host_probe_ms before=%.2f after=%.2f\n", probe_before,
              probe_after);
  std::printf("# busy_cores=%.3f (limit %.1f) wall_s=%.3f cpu_s=%.3f "
              "minor_faults_per_op=%.1f\n",
              busy, nproc / 2.0, wall_s, cpu_s,
              static_cast<double>(faults) / ops);
  std::printf("# setup_s");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf("\n# chunk ops_per_s");
  for (double r : chunks.ops_per_s) std::printf(" %.1f", r);
  std::printf("\n# chunk cpu_ms_per_op");
  for (double c : chunks.cpu_ms_per_op) std::printf(" %.3f", c);
  std::printf("\n# %s_ms %s\n# %s_ms %s\n", w->primary_class(),
              primary.ToString().c_str(), w->secondary_class(),
              secondary.ToString().c_str());
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const std::string& e : log.errors) {
    std::printf("# op failed: %s\n", e.c_str());
  }
  for (const std::string& f : report.failures) {
    std::printf("# check failed: %s\n", f.c_str());
  }

  const bool correct = log.failed == 0 && report.failures.empty();
  std::string json = dfdb::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false",
      static_cast<unsigned long long>(log.attempted),
      static_cast<unsigned long long>(log.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += dfdb::StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                            i ? ", " : "", metrics[i].first->name,
                            Number(metrics[i].second).c_str(),
                            metrics[i].first->unit);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
