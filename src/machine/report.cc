#include "machine/report.h"

#include "common/string_util.h"
#include "obs/metrics.h"

namespace dfdb {

std::string MachineReport::ToString() const {
  std::string out = StrFormat(
      "makespan=%s outer=%s inner=%s cache=%s disk=%s ipUtil=%.1f%%",
      makespan.ToString().c_str(), HumanBitsPerSecond(OuterRingBps()).c_str(),
      HumanBitsPerSecond(InnerRingBps()).c_str(),
      HumanBitsPerSecond(CacheBps()).c_str(),
      HumanBitsPerSecond(DiskBps()).c_str(), IpUtilization() * 100.0);
  AppendCounters(&out, static_cast<const MachineCounters&>(*this), bytes,
                 faults, kernel, index, pushdown);
  return out;
}

obs::RunReport MachineReport::ToReport() const {
  obs::RunReport report;
  report.backend = "machine";
  report.seconds = makespan.ToSecondsF();
  report.simulated_time = true;
  report.data_bytes = bytes.outer_ring;
  report.packets = instruction_packets + result_packets + control_packets;
  report.faults = faults.injected;
  ExportCounters(&report.counters, "machine.",
                 static_cast<const MachineCounters&>(*this), bytes, faults,
                 kernel, index, pushdown);
  report.counters.Set("machine.num_ips", static_cast<uint64_t>(num_ips));
  report.counters.Set("machine.makespan_ns",
                      static_cast<uint64_t>(makespan.nanos()));
  report.counters.Set("machine.ip_busy_ns",
                      static_cast<uint64_t>(ip_busy_total.nanos()));
  report.trace = trace;
  return report;
}

}  // namespace dfdb
