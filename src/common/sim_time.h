/// \file sim_time.h
/// \brief Fixed-point simulated time for the machine simulator.
///
/// The discrete-event simulator in src/machine is fully deterministic; all
/// device models express latencies as SimTime values with nanosecond
/// resolution. Using an integer representation (not double) guarantees that
/// event ordering is exact and platform-independent.

#ifndef DFDB_COMMON_SIM_TIME_H_
#define DFDB_COMMON_SIM_TIME_H_

#include <cstdint>
#include <ostream>
#include <string>

namespace dfdb {

/// \brief A point in (or duration of) simulated time, in nanoseconds.
class SimTime {
 public:
  constexpr SimTime() : ns_(0) {}
  constexpr explicit SimTime(int64_t ns) : ns_(ns) {}

  static constexpr SimTime Zero() { return SimTime(0); }
  static constexpr SimTime Nanos(int64_t n) { return SimTime(n); }
  static constexpr SimTime Micros(int64_t n) { return SimTime(n * 1000); }
  static constexpr SimTime Millis(int64_t n) { return SimTime(n * 1000000); }
  static constexpr SimTime Seconds(int64_t n) { return SimTime(n * 1000000000LL); }

  constexpr int64_t nanos() const { return ns_; }
  constexpr double ToSecondsF() const { return static_cast<double>(ns_) / 1e9; }

  constexpr SimTime operator+(SimTime o) const { return SimTime(ns_ + o.ns_); }
  constexpr SimTime operator-(SimTime o) const { return SimTime(ns_ - o.ns_); }
  constexpr SimTime operator*(int64_t k) const { return SimTime(ns_ * k); }
  SimTime& operator+=(SimTime o) {
    ns_ += o.ns_;
    return *this;
  }
  SimTime& operator-=(SimTime o) {
    ns_ -= o.ns_;
    return *this;
  }

  constexpr auto operator<=>(const SimTime&) const = default;

  /// Human-readable rendering with an adaptive unit (ns/us/ms/s).
  std::string ToString() const;

 private:
  int64_t ns_;
};

std::ostream& operator<<(std::ostream& os, SimTime t);

/// \brief Computes the time to move \p bytes at \p bits_per_second, rounded
/// up to the next nanosecond. Returns Zero for a zero rate (infinite speed).
SimTime TransferTime(int64_t bytes, double bits_per_second);

}  // namespace dfdb

#endif  // DFDB_COMMON_SIM_TIME_H_
