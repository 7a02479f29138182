/// \file harness.h
/// \brief Measurement helpers shared by the benchmark's workloads: latency
/// summaries, spans with per-layer self time, answer checks, and process
/// and host diagnostics.
///
/// Everything here sits outside the program under test: workloads call the
/// dfdb modules' public functions, time those calls, and feed the samples
/// and counters into these helpers.

#ifndef DFDB_PERFBENCH_HARNESS_H_
#define DFDB_PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "catalog/schema.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds of \p t since the steady clock's origin.
int64_t NsOf(Clock::time_point t);

/// NsOf(Clock::now()).
int64_t NowNs();

/// Milliseconds between two steady-clock readings.
double MsBetween(Clock::time_point a, Clock::time_point b);

// --- Latency summaries -----------------------------------------------------

/// Nearest-rank percentile (\p p in (0,1]) of \p sorted, which must be
/// sorted ascending and non-empty: the value at 1-based rank ceil(p*n).
double Percentile(const std::vector<double>& sorted, double p);

/// True when at least ten samples lie beyond the nearest-rank position of
/// \p p among \p n samples — the rule for printing a tail percentile.
bool TailHasTenBeyond(size_t n, double p);

/// Median plus the tails that pass TailHasTenBeyond, with the sample
/// count. Tails that do not pass are reported as absent (negative).
struct LatencySummary {
  size_t n = 0;
  double p50 = -1;
  double p90 = -1;
  double p99 = -1;

  /// "n=... p50=... p90=... p99=..." (absent tails omitted).
  std::string ToString() const;
};

LatencySummary Summarize(std::vector<double> samples);

// --- Spans -------------------------------------------------------------------

/// One timed call into a layer. The layer is the name's prefix before the
/// first '.', so "net.request" and "net.connect" both belong to `net`.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;  ///< Id of the enclosing span, -1 at the root.
  uint64_t op = 0;      ///< Op the span belongs to.
};

/// Collects spans from any thread when enabled; a no-op otherwise. Spans
/// stay in memory until Spans()/WriteJson() at the end of the run.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (0 when disabled).
  int64_t Add(std::string name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t op);

  std::vector<Span> Spans() const;

  /// Writes every span as a JSON array to \p path; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (clipped to it).
std::map<int64_t, int64_t> SelfTimeNs(const std::vector<Span>& spans);

/// Self time summed per layer (name prefix before the first '.').
std::map<std::string, int64_t> LayerSelfTimeNs(const std::vector<Span>& spans);

// --- Answer checks -------------------------------------------------------------

/// Order-independent digest of packed tuples: their count and the wrapping
/// sum of a 64-bit hash of each tuple's bytes. Equal digests mean the same
/// rows byte for byte, up to order (barring a 64-bit hash collision).
class RowDigest {
 public:
  void Add(const char* tuple, size_t width);
  bool operator==(const RowDigest&) const = default;

 private:
  uint64_t rows_ = 0;
  uint64_t sum_ = 0;
};

/// A query answer in canonical form: its tuples sorted, so results that
/// differ only in row order compare equal. DOUBLE columns compare within a
/// relative 1e-9 (SUM over doubles depends on page arrival order); every
/// other byte compares exactly.
class Answer {
 public:
  /// An empty answer over \p schema, filled by Add() and then Seal().
  explicit Answer(const dfdb::Schema& schema);
  /// \p tuples holds \p count packed tuples of \p schema's width.
  Answer(const dfdb::Schema& schema, const char* tuples, uint64_t count);

  /// Adds one packed tuple of the schema's width.
  void Add(const char* tuple);
  /// Sorts the rows; call after the last Add().
  void Seal();

  uint64_t rows() const { return order_.size(); }

  /// True when \p got matches this answer; otherwise false with a reason.
  bool Matches(const Answer& got, std::string* why) const;

  /// True when rows of \p schema with \p digest are this answer's rows
  /// byte for byte, up to order: a check that neither copies nor sorts
  /// them. False decides nothing (doubles may differ in their last bits);
  /// Matches() does.
  bool SameBytes(const dfdb::Schema& schema, const RowDigest& digest) const;

 private:
  const char* Row(size_t i) const {
    return data_.data() + static_cast<size_t>(order_[i]) * row_width_;
  }

  std::vector<int> double_offsets_;
  size_t width_ = 0;
  /// Each row: tuple bytes with DOUBLE columns zeroed, then each double in
  /// an order-preserving 8-byte encoding.
  size_t row_width_ = 0;
  std::string data_;
  std::vector<uint32_t> order_;
  RowDigest digest_;
};

/// Relative-difference test used for DOUBLE columns.
bool DoublesClose(double a, double b);

// --- Process and host diagnostics --------------------------------------------

/// Process user+system CPU seconds so far.
double ProcessCpuSeconds();

/// Peak resident set size of the process in MB.
double PeakRssMb();

/// Minor page faults of the process so far (memory the kernel had to map,
/// a cost that grows when the host's memory system is contended).
uint64_t MinorFaults();

/// Online processors.
int HostProcessors();

/// Times a fixed amount of integer work (about 0.1 s on a 2020s core) and
/// returns its wall milliseconds — a host-speed probe for telling host
/// drift from a program change.
double HostSpeedProbeMs();

/// Compiler and build type this binary was built with.
std::string CompilerId();
std::string BuildType();

// --- Results -----------------------------------------------------------------

/// What a workload's timed phase produced. Each op belongs to the
/// workload's primary or secondary class; its latency lands in that list.
struct OpLog {
  std::vector<double> primary_ms;
  std::vector<double> secondary_ms;
  std::vector<int64_t> done_ns;  ///< Completion time of each recorded op.
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< Ops that errored or returned a wrong answer.
  std::vector<std::string> errors;  ///< The first few failure messages.

  /// Records a correct op of \p ms that completed at \p done.
  void Record(bool primary, double ms, Clock::time_point done);
  void Error(const std::string& why);
  void Merge(const OpLog& other);
};

/// Samples process CPU seconds every few milliseconds on a background
/// thread from construction until Stop().
class CpuSampler {
 public:
  CpuSampler();
  ~CpuSampler();
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  void Stop();

  /// Process CPU seconds at \p t_ns, interpolated between samples. Call
  /// after Stop().
  double CpuAt(int64_t t_ns) const;

 private:
  std::mutex mu_;
  bool stop_ = false;
  std::condition_variable cv_;
  std::vector<std::pair<int64_t, double>> samples_;
  std::thread thread_;  // Declared last: started after the members above.
};

/// Throughput and CPU cost of consecutive chunks of ops. The ops' sorted
/// completion times are cut into \p chunks runs of equal op count; chunk
/// i spans from the previous chunk's last completion (or \p start_ns) to
/// its own last completion, so no op count is rounded to a time window.
struct ChunkRates {
  std::vector<double> ops_per_s;
  std::vector<double> cpu_ms_per_op;
};
ChunkRates ChunkedRates(std::vector<int64_t> done_ns, int64_t start_ns,
                        const CpuSampler& cpu, int chunks);

/// Median of \p values (which need not be sorted); 0 when empty.
double Median(std::vector<double> values);

/// What a workload reports after its timed phase: per-layer values by
/// metric name, failed end-of-run checks, and free-form notes.
struct Report {
  std::map<std::string, double> layer;
  std::vector<std::string> failures;
  std::vector<std::string> notes;
};

}  // namespace perfbench

#endif  // DFDB_PERFBENCH_HARNESS_H_
