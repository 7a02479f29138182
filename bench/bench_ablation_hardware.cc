/// \file bench_ablation_hardware.cc
/// \brief ABL-HW — machine design space: instruction controllers and disk
/// drives.
///
/// Section 4.1 fixes "two IBM 3330 disk drives" and leaves the IC count
/// open ("a set of instruction controllers"). This sweep shows where each
/// resource binds on the ten-query benchmark:
///   - ICs form the distributed arbitration network; too few serialize
///     instruction control and concentrate local-memory pressure;
///   - drives bound cold-read and spill bandwidth — the level Figure 4.2
///     shows saturating first.
///
/// A second sweep measures graceful degradation (Section 4's motivation for
/// distributed control): time-to-completion of the full benchmark while k
/// IPs are killed mid-run, with the recovery counters that explain the
/// slowdown.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "machine/simulator.h"

namespace dfdb {
namespace {

int Main(int argc, char** argv) {
  const double scale = bench::FlagDouble(argc, argv, "scale", 1.0);
  const int ips = bench::FlagInt(argc, argv, "ips", 24);
  std::printf("== ABL-HW: instruction controllers x disk drives (%d IPs) ==\n",
              ips);
  StorageEngine storage(/*default_page_bytes=*/16384);
  bench::BuildDatabaseOrDie(&storage, scale);
  std::vector<Query> queries = MakePaperBenchmarkQueries();
  std::vector<const PlanNode*> plans = bench::QueryPointers(queries);

  bench::Table table({"ics", "drives", "exec_time_s", "disk_mbps",
                      "cache_mbps", "outer_ring_mbps", "ip_util_pct"});
  for (int ics : {1, 2, 4, 8, 16}) {
    for (int drives : {1, 2, 4}) {
      MachineOptions opts;
      opts.granularity = Granularity::kPage;
      opts.config.num_instruction_processors = ips;
      opts.config.num_instruction_controllers = ics;
      opts.config.num_disk_drives = drives;
      opts.config.page_bytes = 16384;
      MachineSimulator sim(&storage, opts);
      auto report = sim.Run(plans);
      DFDB_CHECK(report.ok()) << report.status();
      table.AddRow({StrFormat("%d", ics), StrFormat("%d", drives),
                    StrFormat("%.3f", report->makespan.ToSecondsF()),
                    StrFormat("%.3f", report->DiskBps() / 1e6),
                    StrFormat("%.3f", report->CacheBps() / 1e6),
                    StrFormat("%.3f", report->OuterRingBps() / 1e6),
                    StrFormat("%.1f", report->IpUtilization() * 100.0)});
    }
  }
  table.Print("ablhw");

  // Graceful degradation: kill k of the IPs, staggered over the first half
  // of the fault-free run, and measure the completion-time cost of
  // detection, retransmission, and re-dispatch.
  std::printf("\n== ABL-HW-FAULT: time-to-completion under k IP kills ==\n");
  MachineOptions base;
  base.granularity = Granularity::kPage;
  base.config.num_instruction_processors = ips;
  base.config.num_instruction_controllers = 4;
  base.config.num_disk_drives = 2;
  base.config.page_bytes = 16384;
  MachineSimulator healthy(&storage, base);
  auto healthy_report = healthy.Run(plans);
  DFDB_CHECK(healthy_report.ok()) << healthy_report.status();
  const SimTime horizon = healthy_report->makespan;

  bench::Table fault_table({"kills", "exec_time_s", "slowdown", "timeouts",
                            "retries", "redispatches", "retry_lost_ms"});
  for (int kills : {0, 1, 2, 4}) {
    FaultPlan plan;
    for (int k = 0; k < kills; ++k) {
      // Stagger kills across the first half of the fault-free makespan so
      // recovery overlaps remaining work instead of landing on the tail.
      const SimTime at = SimTime::Nanos(
          horizon.nanos() * (k + 1) / (2 * (kills + 1)));
      plan.events.push_back(
          {FaultType::kKillIp, at, /*target=*/-1, 1, SimTime::Zero()});
    }
    MachineOptions opts = base;
    opts.fault_plan = plan;
    MachineSimulator sim(&storage, opts);
    auto report = sim.Run(plans);
    DFDB_CHECK(report.ok()) << report.status();
    fault_table.AddRow(
        {StrFormat("%d", kills),
         StrFormat("%.3f", report->makespan.ToSecondsF()),
         StrFormat("%.3fx", report->makespan.ToSecondsF() /
                                healthy_report->makespan.ToSecondsF()),
         StrFormat("%llu", (unsigned long long)report->faults.timeouts),
         StrFormat("%llu", (unsigned long long)report->faults.retries),
         StrFormat("%llu", (unsigned long long)report->faults.redispatches),
         StrFormat("%.3f",
                   static_cast<double>(report->faults.retry_ns_lost) / 1e6)});
  }
  fault_table.Print("ablhw_fault");
  bench::WriteJson("bench_ablation_hardware", argc, argv);
  return 0;
}

}  // namespace
}  // namespace dfdb

int main(int argc, char** argv) { return dfdb::Main(argc, argv); }
