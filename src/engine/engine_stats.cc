#include "engine/engine_stats.h"

#include "common/string_util.h"
#include "obs/metrics.h"

namespace dfdb {

ExecStats& ExecStats::operator+=(const ExecStats& o) {
  static_cast<ExecCounters&>(*this) += static_cast<const ExecCounters&>(o);
  kernel += o.kernel;
  index += o.index;
  pushdown += o.pushdown;
  sched += o.sched;
  mvcc += o.mvcc;
  buffer += o.buffer;
  return *this;
}

std::string ExecStats::ToString() const {
  std::string out = StrFormat("wall=%.3fs", wall_seconds);
  AppendCounters(&out, static_cast<const ExecCounters&>(*this), kernel, index,
                 pushdown, sched, mvcc, buffer);
  return out;
}

void RegisterMetrics(const ExecStats& stats, obs::MetricsRegistry* registry) {
  ExportCounters(registry, "engine.", static_cast<const ExecCounters&>(stats),
                 stats.kernel, stats.index, stats.pushdown, stats.sched,
                 stats.mvcc);
  ExportCounters(registry, "storage.", stats.buffer);
  registry->Set("engine.network_bytes", stats.network_bytes());
}

obs::RunReport ExecStats::ToReport() const {
  obs::RunReport report;
  report.backend = "engine";
  report.seconds = wall_seconds;
  report.simulated_time = false;
  report.data_bytes = network_bytes();
  report.packets = packets;
  report.faults = faults_injected;
  RegisterMetrics(*this, &report.counters);
  report.trace = trace;
  return report;
}

}  // namespace dfdb
