#include "obs/counters.h"

#include "common/string_util.h"
#include "obs/metrics.h"

namespace dfdb {
namespace counters_detail {

void Export(std::string_view prefix, std::string_view key, uint64_t value,
            obs::MetricsRegistry* registry) {
  std::string name(prefix);
  name += key;
  registry->Set(std::move(name), value);
}

void Append(std::string_view key, CounterKind kind, uint64_t value,
            bool first, std::string* out) {
  if (!out->empty()) *out += first ? " | " : " ";
  out->append(key);
  *out += '=';
  switch (kind) {
    case CounterKind::kBytes:
      *out += HumanBytes(static_cast<int64_t>(value));
      break;
    case CounterKind::kNs:
      *out += StrFormat("%.3fms", static_cast<double>(value) / 1e6);
      break;
    case CounterKind::kCount:
    case CounterKind::kGauge:
      *out += std::to_string(value);
      break;
  }
}

}  // namespace counters_detail
}  // namespace dfdb
