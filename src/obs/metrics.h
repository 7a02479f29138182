/// \file metrics.h
/// \brief Named-counter registry shared by both backends.
///
/// The registry is the *snapshot* side of observability: hot paths keep
/// updating their existing cheap counters (std::atomic in the engine,
/// plain uint64 in the single-threaded simulator), and at run completion
/// each stats struct registers its values here under one dotted naming
/// scheme. The counter families and their keys are the table in
/// obs/counters.h.
///
/// Keys are stored in a sorted map so Snapshot() and ToJson() are
/// deterministic.

#ifndef DFDB_OBS_METRICS_H_
#define DFDB_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace dfdb {
namespace obs {

class JsonWriter;

/// \brief A map of dotted metric names to uint64 values.
///
/// Not thread-safe: a registry is populated at snapshot time (end of a run)
/// by one thread, never on the hot path.
class MetricsRegistry {
 public:
  /// Sets (or overwrites) a counter/gauge to an absolute value.
  void Set(std::string name, uint64_t value);

  /// Adds to a counter, creating it at zero first if absent.
  void Add(std::string_view name, uint64_t delta);

  /// Returns the value, or nullopt if the name was never registered.
  std::optional<uint64_t> Get(std::string_view name) const;

  /// Value lookup with a default for unregistered names.
  uint64_t GetOr(std::string_view name, uint64_t def) const;

  bool empty() const { return counters_.empty(); }
  size_t size() const { return counters_.size(); }

  /// Sorted (name, value) view — iteration order is deterministic.
  const std::map<std::string, uint64_t>& counters() const { return counters_; }

  /// Writes `{"name":value,...}` in sorted key order.
  void ToJson(JsonWriter* w) const;
  std::string ToJson() const;

  /// Multi-line `name value` dump (REPL `\stats`).
  std::string ToString() const;

 private:
  std::map<std::string, uint64_t> counters_;
};

}  // namespace obs
}  // namespace dfdb

#endif  // DFDB_OBS_METRICS_H_
