#include "workload.h"

#include <algorithm>

#include "common/random.h"
#include "ra/parser.h"

namespace perfbench {

Answer AnswerOf(const dfdb::QueryResult& result) {
  Answer answer(result.schema());
  for (const dfdb::PagePtr& page : result.pages()) {
    for (int i = 0; i < page->num_tuples(); ++i) {
      answer.Add(page->tuple(i).data());
    }
  }
  answer.Seal();
  return answer;
}

bool CheckAnswer(const Answer& want, const dfdb::QueryResult& got,
                 std::string* why) {
  RowDigest digest;
  const size_t width = static_cast<size_t>(got.schema().tuple_width());
  for (const dfdb::PagePtr& page : got.pages()) {
    for (int i = 0; i < page->num_tuples(); ++i) {
      digest.Add(page->tuple(i).data(), width);
    }
  }
  return want.SameBytes(got.schema(), digest) ||
         want.Matches(AnswerOf(got), why);
}

void TimeRaLayer(const std::vector<std::string>& texts,
                 const dfdb::Catalog& catalog, Report* report) {
  constexpr int kRepeats = 50;
  dfdb::Optimizer optimizer(&catalog);
  std::vector<double> parse_us;
  std::vector<double> optimize_us;
  for (int r = 0; r < kRepeats; ++r) {
    for (const std::string& text : texts) {
      const auto t0 = Clock::now();
      auto plan = dfdb::ParseQuery(text);
      const auto t1 = Clock::now();
      if (!plan.ok()) continue;
      auto optimized = optimizer.Optimize(**plan, nullptr);
      const auto t2 = Clock::now();
      parse_us.push_back(MsBetween(t0, t1) * 1e3);
      if (optimized.ok()) optimize_us.push_back(MsBetween(t1, t2) * 1e3);
    }
  }
  report->layer["ra.parse_us_p50"] = Summarize(parse_us).p50;
  report->layer["ra.optimize_us_p50"] = Summarize(optimize_us).p50;
}

void ReportPlanMarks(const dfdb::OptimizerReport& marks, Report* report) {
  report->layer["ra.scans_pushdown"] = marks.scans_pushdown;
  report->layer["ra.scans_gridfile"] = marks.scans_gridfile;
  report->layer["ra.edges_fused"] = marks.edges_fused;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void ReportEngineDelta(const dfdb::ExecStats& before,
                       const dfdb::ExecStats& after, uint64_t ops,
                       uint64_t scanned_pages, Report* report) {
  auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  const double n = static_cast<double>(ops);
  auto& l = report->layer;
  l["engine.tasks_per_packet"] =
      Ratio(d(before.tasks_executed, after.tasks_executed),
            d(before.packets, after.packets));
  l["engine.pipeline_pages_elided_per_op"] = Ratio(
      d(before.pipeline_pages_elided, after.pipeline_pages_elided), n);
  l["operators.hash_joins_per_op"] =
      Ratio(d(before.kernel.hash_joins, after.kernel.hash_joins), n);
  l["operators.nested_joins_per_op"] =
      Ratio(d(before.kernel.nested_joins, after.kernel.nested_joins), n);
  l["operators.compiled_pages_per_op"] =
      Ratio(d(before.kernel.compiled_pages, after.kernel.compiled_pages), n);
  l["operators.interpreted_pages_per_op"] = Ratio(
      d(before.kernel.interpreted_pages, after.kernel.interpreted_pages), n);
  const dfdb::BufferStats& b0 = before.buffer;
  const dfdb::BufferStats& b1 = after.buffer;
  const double fetches = d(b0.local_hits, b1.local_hits) +
                         d(b0.cache_reads, b1.cache_reads);
  l["storage.cache_hit_ratio"] =
      Ratio(fetches - d(b0.disk_reads, b1.disk_reads), fetches);
  l["storage.disk_reads_per_op"] = Ratio(d(b0.disk_reads, b1.disk_reads), n);
  const dfdb::PushdownCounters& p0 = before.pushdown;
  const dfdb::PushdownCounters& p1 = after.pushdown;
  l["storage.pushdown_survivor_ratio"] = Ratio(
      d(p0.tuples_out, p1.tuples_out), d(p0.tuples_in, p1.tuples_in));
  l["storage.pushdown_bytes_elided_per_op"] =
      Ratio(d(p0.bytes_elided, p1.bytes_elided), n);
  l["index.pages_pruned_ratio"] =
      Ratio(d(before.index.pages_pruned, after.index.pages_pruned),
            n * static_cast<double>(scanned_pages));
}

dfdb::ExecStats AddStats(const dfdb::ExecStats& a, const dfdb::ExecStats& b) {
  dfdb::ExecStats s = a;
  s.tasks_executed += b.tasks_executed;
  s.packets += b.packets;
  s.pipeline_pages_elided += b.pipeline_pages_elided;
  s.kernel.hash_joins += b.kernel.hash_joins;
  s.kernel.nested_joins += b.kernel.nested_joins;
  s.kernel.compiled_pages += b.kernel.compiled_pages;
  s.kernel.interpreted_pages += b.kernel.interpreted_pages;
  s.buffer.local_hits += b.buffer.local_hits;
  s.buffer.cache_reads += b.buffer.cache_reads;
  s.buffer.disk_reads += b.buffer.disk_reads;
  s.pushdown += b.pushdown;
  s.index.pages_pruned += b.index.pages_pruned;
  return s;
}

dfdb::StatusOr<dfdb::PlanNodePtr> PlanText(const std::string& text,
                                           const dfdb::Catalog& catalog,
                                           dfdb::OptimizerReport* marks) {
  DFDB_ASSIGN_OR_RETURN(dfdb::PlanNodePtr parsed, dfdb::ParseQuery(text));
  dfdb::OptimizerReport one;
  DFDB_ASSIGN_OR_RETURN(dfdb::PlanNodePtr plan,
                        dfdb::Optimizer(&catalog).Optimize(*parsed, &one));
  if (marks != nullptr) {
    marks->scans_pushdown += one.scans_pushdown;
    marks->scans_gridfile += one.scans_gridfile;
    marks->edges_fused += one.edges_fused;
  }
  return plan;
}

std::vector<int> SeededOrder(int n, uint64_t seed) {
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  dfdb::Random rng(seed);
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[static_cast<size_t>(i)],
              order[rng.Uniform(static_cast<uint64_t>(i) + 1)]);
  }
  return order;
}

}  // namespace perfbench
