#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

int64_t NsOf(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

int64_t NowNs() { return NsOf(Clock::now()); }

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

namespace {

/// 1-based nearest rank of percentile \p p among \p n samples. The small
/// epsilon keeps p*n products such as 0.9*10 from rounding up a rank.
size_t NearestRank(size_t n, double p) {
  const double r = std::ceil(p * static_cast<double>(n) - 1e-9);
  return std::clamp(static_cast<size_t>(std::max(r, 1.0)), size_t{1}, n);
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double p) {
  return sorted[NearestRank(sorted.size(), p) - 1];
}

bool TailHasTenBeyond(size_t n, double p) {
  return n > 0 && n - NearestRank(n, p) >= 10;
}

std::string LatencySummary::ToString() const {
  char buf[160];
  int len = std::snprintf(buf, sizeof(buf), "n=%zu p50=%.4f", n, p50);
  if (p90 >= 0) {
    len += std::snprintf(buf + len, sizeof(buf) - static_cast<size_t>(len),
                         " p90=%.4f", p90);
  }
  if (p99 >= 0) {
    std::snprintf(buf + len, sizeof(buf) - static_cast<size_t>(len),
                  " p99=%.4f", p99);
  }
  return buf;
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = Percentile(samples, 0.5);
  if (TailHasTenBeyond(s.n, 0.9)) s.p90 = Percentile(samples, 0.9);
  if (TailHasTenBeyond(s.n, 0.99)) s.p99 = Percentile(samples, 0.99);
  return s;
}

// --- Spans -------------------------------------------------------------------

int64_t SpanRecorder::Add(std::string name, int64_t start_ns, int64_t end_ns,
                          int64_t parent, uint64_t op) {
  if (!enabled_) return 0;
  const int64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), start_ns, end_ns, id, parent, op});
  return id;
}

std::vector<Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  const std::vector<Span> spans = Spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%lld,\"parent\":%lld,\"op\":%llu}%s\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

std::map<int64_t, int64_t> SelfTimeNs(const std::vector<Span>& spans) {
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<int64_t, int64_t> self;
  for (const Span& s : spans) {
    std::vector<std::pair<int64_t, int64_t>> parts;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (auto [a, b] : it->second) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (a < b) parts.push_back({a, b});
      }
    }
    std::sort(parts.begin(), parts.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (const auto& [a, b] : parts) {
      const int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    self[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, int64_t> LayerSelfTimeNs(const std::vector<Span>& spans) {
  const std::map<int64_t, int64_t> self = SelfTimeNs(spans);
  std::map<std::string, int64_t> layers;
  for (const Span& s : spans) {
    const std::string layer = s.name.substr(0, s.name.find('.'));
    layers[layer] += self.at(s.id);
  }
  return layers;
}

// --- Answer checks -------------------------------------------------------------

namespace {

/// Order-preserving byte encoding of a double: lexicographic order of the
/// big-endian bytes equals numeric order.
void AppendSortableDouble(double v, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  bits = (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
  for (int shift = 56; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((bits >> shift) & 0xff));
  }
}

double ReadSortableDouble(const char* p) {
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits = (bits << 8) | static_cast<unsigned char>(p[i]);
  }
  bits = (bits >> 63) != 0 ? bits & ~(uint64_t{1} << 63) : ~bits;
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

void RowDigest::Add(const char* tuple, size_t width) {
  auto mix = [](uint64_t h, uint64_t word) {
    h = (h ^ word) * 0xff51afd7ed558ccdULL;
    return h ^ (h >> 29);
  };
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  size_t i = 0;
  for (; i + 8 <= width; i += 8) {
    uint64_t word;
    std::memcpy(&word, tuple + i, sizeof(word));
    h = mix(h, word);
  }
  if (i < width) {
    uint64_t word = 0;
    std::memcpy(&word, tuple + i, width - i);
    h = mix(h, word);
  }
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  ++rows_;
  sum_ += h ^ (h >> 33);
}

bool DoublesClose(double a, double b) {
  if (a == b) return true;
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

Answer::Answer(const dfdb::Schema& schema)
    : width_(static_cast<size_t>(schema.tuple_width())) {
  for (int c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).type == dfdb::ColumnType::kDouble) {
      double_offsets_.push_back(schema.offset(c));
    }
  }
  row_width_ = width_ + 8 * double_offsets_.size();
}

Answer::Answer(const dfdb::Schema& schema, const char* tuples, uint64_t count)
    : Answer(schema) {
  data_.reserve(count * row_width_);
  order_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) Add(tuples + i * width_);
  Seal();
}

void Answer::Add(const char* tuple) {
  digest_.Add(tuple, width_);
  const size_t at = data_.size();
  data_.append(tuple, width_);
  for (int off : double_offsets_) {
    double v;
    std::memcpy(&v, tuple + off, sizeof(v));
    std::memset(data_.data() + at + static_cast<size_t>(off), 0, sizeof(v));
    AppendSortableDouble(v, &data_);
  }
  order_.push_back(static_cast<uint32_t>(order_.size()));
}

void Answer::Seal() {
  std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
    return std::memcmp(data_.data() + a * row_width_,
                       data_.data() + b * row_width_, row_width_) < 0;
  });
}

bool Answer::SameBytes(const dfdb::Schema& schema,
                       const RowDigest& digest) const {
  const Answer layout(schema);
  return layout.width_ == width_ &&
         layout.double_offsets_ == double_offsets_ && digest == digest_;
}

bool Answer::Matches(const Answer& got, std::string* why) const {
  if (got.width_ != width_ || got.double_offsets_ != double_offsets_) {
    *why = "result schema differs";
    return false;
  }
  if (got.rows() != rows()) {
    *why = "expected " + std::to_string(rows()) + " rows, got " +
           std::to_string(got.rows());
    return false;
  }
  for (size_t i = 0; i < order_.size(); ++i) {
    const char* a = Row(i);
    const char* b = got.Row(i);
    if (std::memcmp(a, b, width_) != 0) {
      *why = "row " + std::to_string(i) + " differs";
      return false;
    }
    for (size_t d = 0; d < double_offsets_.size(); ++d) {
      const double x = ReadSortableDouble(a + width_ + 8 * d);
      const double y = ReadSortableDouble(b + width_ + 8 * d);
      if (!DoublesClose(x, y)) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "row %zu double %.17g != %.17g", i, x,
                      y);
        *why = buf;
        return false;
      }
    }
  }
  return true;
}

// --- Process and host diagnostics --------------------------------------------

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB.
}

uint64_t MinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_minflt);
}

int HostProcessors() {
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

double HostSpeedProbeMs() {
  const auto start = Clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  uint64_t acc = 0;
  for (int i = 0; i < 60'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x >> 60;
  }
  const auto end = Clock::now();
  static std::atomic<uint64_t> sink;
  sink.store(acc, std::memory_order_relaxed);  // Keeps the loop alive.
  return MsBetween(start, end);
}

std::string CompilerId() { return PERFBENCH_COMPILER; }
std::string BuildType() { return PERFBENCH_BUILD_TYPE; }

// --- Results -----------------------------------------------------------------

void OpLog::Record(bool primary, double ms, Clock::time_point done) {
  (primary ? primary_ms : secondary_ms).push_back(ms);
  done_ns.push_back(NsOf(done));
}

void OpLog::Error(const std::string& why) {
  ++failed;
  if (errors.size() < 5) errors.push_back(why);
}

void OpLog::Merge(const OpLog& other) {
  primary_ms.insert(primary_ms.end(), other.primary_ms.begin(),
                    other.primary_ms.end());
  secondary_ms.insert(secondary_ms.end(), other.secondary_ms.begin(),
                      other.secondary_ms.end());
  done_ns.insert(done_ns.end(), other.done_ns.begin(), other.done_ns.end());
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& e : other.errors) {
    if (errors.size() < 5) errors.push_back(e);
  }
}

CpuSampler::CpuSampler()
    : thread_([this] {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
          samples_.push_back({NowNs(), ProcessCpuSeconds()});
          if (stop_) return;
          cv_.wait_for(lock, std::chrono::milliseconds(10));
        }
      }) {}

CpuSampler::~CpuSampler() { Stop(); }

void CpuSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

double CpuSampler::CpuAt(int64_t t_ns) const {
  if (samples_.empty()) return 0;
  auto hi = std::lower_bound(
      samples_.begin(), samples_.end(), t_ns,
      [](const std::pair<int64_t, double>& s, int64_t t) { return s.first < t; });
  if (hi == samples_.begin()) return hi->second;
  if (hi == samples_.end()) return samples_.back().second;
  auto lo = hi - 1;
  const double f = static_cast<double>(t_ns - lo->first) /
                   static_cast<double>(hi->first - lo->first);
  return lo->second + f * (hi->second - lo->second);
}

ChunkRates ChunkedRates(std::vector<int64_t> done_ns, int64_t start_ns,
                        const CpuSampler& cpu, int chunks) {
  ChunkRates out;
  std::sort(done_ns.begin(), done_ns.end());
  const size_t count =
      std::min(static_cast<size_t>(chunks), done_ns.size());
  if (count == 0) return out;
  const size_t per = done_ns.size() / count;
  int64_t from = start_ns;
  for (size_t c = 0; c < count; ++c) {
    const int64_t to = done_ns[(c + 1) * per - 1];
    if (to <= from) continue;
    const double n = static_cast<double>(per);
    out.ops_per_s.push_back(n * 1e9 / static_cast<double>(to - from));
    out.cpu_ms_per_op.push_back((cpu.CpuAt(to) - cpu.CpuAt(from)) * 1e3 / n);
    from = to;
  }
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return Percentile(values, 0.5);
}

}  // namespace perfbench
