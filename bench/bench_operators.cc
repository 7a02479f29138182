/// \file bench_operators.cc
/// \brief OPS — operator-kernel throughput: compiled predicate programs vs
/// the interpreted Expr oracle, the hash-join fast path vs nested loops, and
/// the compiled aggregate program vs the interpreted Aggregator.
///
/// Default mode measures page-at-a-time kernel throughput both ways on the
/// standard benchmark relations, prints a before/after table, and exports
/// the gauges (`kernel.restrict.compiled_tuples_per_s`, ...) plus one real
/// engine run's counter snapshot (`engine.kernel.*`) through the shared
/// RunReport JSON path (`--json=PATH`, default results/bench_operators.json).
/// `--micro` instead runs the original google-benchmark microbenchmarks,
/// writing results/bench_operators_micro.json.

#include <benchmark/benchmark.h>
#include <sys/stat.h>

#include <chrono>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "engine/run.h"
#include "operators/aggregator.h"
#include "operators/compiled_aggregate.h"
#include "operators/dedup.h"
#include "operators/kernels.h"
#include "operators/sort_merge_join.h"
#include "ra/analyzer.h"
#include "ra/expr_compile.h"
#include "storage/storage_engine.h"
#include "workload/generator.h"

namespace dfdb {
namespace {

/// Shared fixture data: one generated relation, materialized pages.
struct BenchData {
  StorageEngine storage{16384};
  Schema schema = BenchmarkSchema();
  std::vector<PagePtr> pages;
  std::vector<PagePtr> small_pages;

  BenchData() {
    auto r1 = GenerateRelation(&storage, "bench", 20000, 1);
    DFDB_CHECK(r1.ok());
    auto f1 = storage.GetHeapFile("bench");
    DFDB_CHECK(f1.ok());
    for (PageId id : (*f1)->PageIds()) {
      auto p = storage.page_store().Get(id);
      DFDB_CHECK(p.ok());
      pages.push_back(*p);
    }
    auto r2 = GenerateRelation(&storage, "bench_small", 2000, 2);
    DFDB_CHECK(r2.ok());
    auto f2 = storage.GetHeapFile("bench_small");
    DFDB_CHECK(f2.ok());
    for (PageId id : (*f2)->PageIds()) {
      auto p = storage.page_store().Get(id);
      DFDB_CHECK(p.ok());
      small_pages.push_back(*p);
    }
  }
};

BenchData& Data() {
  static BenchData* data = new BenchData();
  return *data;
}

/// Sink that counts, avoiding allocation noise in kernel benchmarks.
class CountingSink final : public PageSink {
 public:
  Status Emit(Slice tuple) override {
    count_ += tuple.size();
    return Status::OK();
  }
  Status EmitParts(const Slice* parts, size_t n) override {
    for (size_t i = 0; i < n; ++i) count_ += parts[i].size();
    return Status::OK();
  }
  size_t count() const { return count_; }

 private:
  size_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Gauge mode (default): interpreted vs compiled kernel throughput
// ---------------------------------------------------------------------------

/// Best-of-N wall time of one full workload pass (best, not mean, to shed
/// scheduler noise; each pass is milliseconds to seconds of work).
template <typename Fn>
double BestSeconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct Comparison {
  const char* name;
  double interpreted_per_s = 0;
  double compiled_per_s = 0;
  double speedup() const {
    return interpreted_per_s > 0 ? compiled_per_s / interpreted_per_s : 0;
  }
};

/// Restrict comparison over every page of "bench" (tuples/s).
Comparison CompareRestrict(const char* name, ExprPtr pred, int reps) {
  BenchData& d = Data();
  DFDB_CHECK_OK(pred->Bind(d.schema, nullptr));
  auto compiled = CompiledPredicate::Compile(*pred, d.schema);
  DFDB_CHECK(compiled.ok()) << compiled.status();
  uint64_t tuples = 0;
  for (const PagePtr& page : d.pages) {
    tuples += static_cast<uint64_t>(page->num_tuples());
  }
  Comparison out{name};
  const double ti = BestSeconds(reps, [&] {
    CountingSink sink;
    for (const PagePtr& page : d.pages) {
      DFDB_CHECK_OK(RestrictPage(d.schema, *pred, *page, &sink));
    }
    benchmark::DoNotOptimize(sink.count());
  });
  const double tc = BestSeconds(reps, [&] {
    CountingSink sink;
    for (const PagePtr& page : d.pages) {
      DFDB_CHECK_OK(RestrictPage(*compiled, *page, &sink));
    }
    benchmark::DoNotOptimize(sink.count());
  });
  out.interpreted_per_s = static_cast<double>(tuples) / ti;
  out.compiled_per_s = static_cast<double>(tuples) / tc;
  return out;
}

/// CountMatches: per-tuple interpreted EvalBool loop (the pre-compilation
/// implementation) vs the compiled counting kernel (tuples/s).
Comparison CompareCount(const char* name, ExprPtr pred, int reps) {
  BenchData& d = Data();
  DFDB_CHECK_OK(pred->Bind(d.schema, nullptr));
  auto compiled = CompiledPredicate::Compile(*pred, d.schema);
  DFDB_CHECK(compiled.ok()) << compiled.status();
  uint64_t tuples = 0;
  for (const PagePtr& page : d.pages) {
    tuples += static_cast<uint64_t>(page->num_tuples());
  }
  Comparison out{name};
  const double ti = BestSeconds(reps, [&] {
    uint64_t n = 0;
    for (const PagePtr& page : d.pages) {
      for (int i = 0; i < page->num_tuples(); ++i) {
        TupleView view(&d.schema, page->tuple(i));
        auto r = pred->EvalBool(view, nullptr);
        DFDB_CHECK(r.ok());
        n += *r ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(n);
  });
  const double tc = BestSeconds(reps, [&] {
    uint64_t n = 0;
    for (const PagePtr& page : d.pages) {
      n += CountMatches(*compiled, *page);
    }
    benchmark::DoNotOptimize(n);
  });
  out.interpreted_per_s = static_cast<double>(tuples) / ti;
  out.compiled_per_s = static_cast<double>(tuples) / tc;
  return out;
}

/// Join comparison: interpreted nested loops vs the compiled kernel (hash
/// path for equijoins) over outer pages of "bench" x all of "bench_small".
/// Throughput is tuple *pairs* per second — the nested-loops work unit.
Comparison CompareJoin(const char* name, ExprPtr pred, size_t outer_pages,
                       int reps) {
  BenchData& d = Data();
  DFDB_CHECK_OK(pred->Bind(d.schema, &d.schema));
  auto compiled = CompiledJoinPredicate::Compile(*pred, d.schema, d.schema);
  DFDB_CHECK(compiled.ok()) << compiled.status();
  DFDB_CHECK(compiled->hash_eligible());
  outer_pages = std::min(outer_pages, d.pages.size());
  uint64_t pairs = 0;
  for (size_t o = 0; o < outer_pages; ++o) {
    for (const PagePtr& inner : d.small_pages) {
      pairs += static_cast<uint64_t>(d.pages[o]->num_tuples()) *
               static_cast<uint64_t>(inner->num_tuples());
    }
  }
  Comparison out{name};
  const double ti = BestSeconds(reps, [&] {
    CountingSink sink;
    for (size_t o = 0; o < outer_pages; ++o) {
      for (const PagePtr& inner : d.small_pages) {
        DFDB_CHECK_OK(
            JoinPages(d.schema, d.schema, *pred, *d.pages[o], *inner, &sink));
      }
    }
    benchmark::DoNotOptimize(sink.count());
  });
  JoinScratch scratch;
  const double tc = BestSeconds(reps, [&] {
    CountingSink sink;
    for (size_t o = 0; o < outer_pages; ++o) {
      for (const PagePtr& inner : d.small_pages) {
        DFDB_CHECK_OK(JoinPages(*compiled, *d.pages[o], *inner, &scratch,
                                &sink, nullptr));
      }
    }
    benchmark::DoNotOptimize(sink.count());
  });
  out.interpreted_per_s = static_cast<double>(pairs) / ti;
  out.compiled_per_s = static_cast<double>(pairs) / tc;
  return out;
}

/// Grouped aggregation over every page of "bench": the interpreted
/// Aggregator vs the compiled program (tuples/s), for \p specs grouped by
/// \p group_by.
Comparison CompareAggregate(const char* name,
                            const std::vector<std::string>& group_by,
                            std::vector<AggregateSpec> specs, int reps) {
  BenchData& d = Data();
  PlanNodePtr plan = MakeAggregate(MakeScan("bench"), group_by, specs);
  Analyzer analyzer(&d.storage.catalog());
  auto analysis = analyzer.Resolve(plan.get());
  DFDB_CHECK(analysis.ok()) << analysis.status();
  auto interpreted =
      Aggregator::Create(d.schema, plan->output_schema, group_by, specs);
  DFDB_CHECK(interpreted.ok()) << interpreted.status();
  auto compiled = CompiledAggregate::Compile(d.schema, plan->output_schema,
                                             group_by, specs);
  DFDB_CHECK(compiled.ok()) << compiled.status();
  uint64_t tuples = 0;
  for (const PagePtr& page : d.pages) {
    tuples += static_cast<uint64_t>(page->num_tuples());
  }
  auto pass = [&](auto* kernel) {
    return BestSeconds(reps, [&] {
      for (const PagePtr& page : d.pages) DFDB_CHECK_OK(kernel->Consume(*page));
      CountingSink sink;
      DFDB_CHECK_OK(kernel->Finish(&sink));
      benchmark::DoNotOptimize(sink.count());
    });
  };
  Comparison out{name};
  out.interpreted_per_s = static_cast<double>(tuples) / pass(&*interpreted);
  out.compiled_per_s = static_cast<double>(tuples) / pass(&*compiled);
  return out;
}

/// One real engine execution (restrict + equijoin), proving the
/// `engine.kernel.*` counter family flows end to end: the exported run must
/// show compiled pages and a hash join.
obs::RunReport EngineCounterRun() {
  BenchData& d = Data();
  PlanNodePtr plan = MakeJoin(
      MakeRestrict(MakeScan("bench"), Lt(Col("k1000"), Lit(100))),
      MakeScan("bench_small"), Eq(Col("id"), RightCol("id")));
  Analyzer analyzer(&d.storage.catalog());
  auto analysis = analyzer.Resolve(plan.get());
  DFDB_CHECK(analysis.ok()) << analysis.status();
  ExecStats stats;
  auto result = RunQuery(&d.storage, *plan, ExecOptions{}, &stats);
  DFDB_CHECK(result.ok()) << result.status();
  DFDB_CHECK(stats.kernel.compiled_pages > 0);
  DFDB_CHECK(stats.kernel.hash_joins > 0);
  DFDB_CHECK(stats.kernel.compile_fallbacks == 0);
  obs::RunReport report = stats.ToReport();
  report.label = "restrict+hashjoin";
  return report;
}

int GaugeMain(int argc, char** argv) {
  const int reps = bench::FlagInt(argc, argv, "reps", 3);
  std::printf("== OPS: compiled kernels vs interpreted oracle ==\n");
  Data();  // Materialize relations before timing.

  std::vector<Comparison> rows;
  // Single compare, selective (10%) and half-selective shapes.
  rows.push_back(CompareRestrict("restrict.k1000_lt_100",
                                 Lt(Col("k1000"), Lit(100)), reps));
  rows.push_back(CompareRestrict("restrict.k1000_lt_500",
                                 Lt(Col("k1000"), Lit(500)), reps));
  // Conjunction of compares (the kConjunction fast shape).
  rows.push_back(CompareRestrict(
      "restrict.conj", And(Eq(Col("k2"), Lit(1)), Lt(Col("k100"), Lit(50))),
      reps));
  // Double compare and a generic-program disjunction.
  rows.push_back(CompareRestrict("restrict.val_lt_half",
                                 Lt(Col("val"), Lit(0.5)), reps));
  rows.push_back(CompareRestrict(
      "restrict.generic_or",
      Or(Lt(Col("k1000"), Lit(50)), Gt(Col("val"), Lit(0.95))), reps));
  rows.push_back(
      CompareCount("count.k1000_lt_100", Lt(Col("k1000"), Lit(100)), reps));
  // Selective equijoin (unique keys) and a fan-out equijoin.
  rows.push_back(
      CompareJoin("join.eq_id", Eq(Col("id"), RightCol("id")), 4, reps));
  rows.push_back(CompareJoin("join.eq_k100",
                             Eq(Col("k100"), RightCol("k100")), 4, reps));
  // The events_scan full-scan shape: an INT32 key, COUNT and SUM(double).
  rows.push_back(CompareAggregate("agg.k25_count_sum_val", {"k25"},
                                  {{AggregateSpec::Func::kCount, "", "n"},
                                   {AggregateSpec::Func::kSum, "val", "s"}},
                                  reps));

  bench::Table table({"kernel", "interpreted/s", "compiled/s", "speedup"});
  obs::RunReport report = EngineCounterRun();
  for (const Comparison& c : rows) {
    table.AddRow({c.name, StrFormat("%.3gM", c.interpreted_per_s / 1e6),
                  StrFormat("%.3gM", c.compiled_per_s / 1e6),
                  StrFormat("%.1fx", c.speedup())});
    const std::string base = std::string("kernel.") + c.name;
    report.gauges[base + ".interpreted_per_s"] = c.interpreted_per_s;
    report.gauges[base + ".compiled_per_s"] = c.compiled_per_s;
    report.gauges[base + ".speedup_x"] = c.speedup();
  }
  table.Print("ops_kernels");
  bench::JsonReport::Global().AddRunReport(report);
  bench::WriteJson("bench_operators", argc, argv);
  return 0;
}

// ---------------------------------------------------------------------------
// Micro mode (--micro): the original google-benchmark suite
// ---------------------------------------------------------------------------

void BM_RestrictPage(benchmark::State& state) {
  BenchData& d = Data();
  ExprPtr pred = Lt(Col("k1000"), Lit(static_cast<int32_t>(state.range(0))));
  DFDB_CHECK_OK(pred->Bind(d.schema, nullptr));
  size_t bytes = 0;
  for (auto _ : state) {
    CountingSink sink;
    for (const PagePtr& page : d.pages) {
      DFDB_CHECK_OK(RestrictPage(d.schema, *pred, *page, &sink));
      bytes += static_cast<size_t>(page->payload_bytes());
    }
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_RestrictPage)->Arg(10)->Arg(100)->Arg(500)->Arg(1000);

void BM_RestrictPageCompiled(benchmark::State& state) {
  BenchData& d = Data();
  ExprPtr pred = Lt(Col("k1000"), Lit(static_cast<int32_t>(state.range(0))));
  DFDB_CHECK_OK(pred->Bind(d.schema, nullptr));
  auto compiled = CompiledPredicate::Compile(*pred, d.schema);
  DFDB_CHECK(compiled.ok());
  size_t bytes = 0;
  for (auto _ : state) {
    CountingSink sink;
    for (const PagePtr& page : d.pages) {
      DFDB_CHECK_OK(RestrictPage(*compiled, *page, &sink));
      bytes += static_cast<size_t>(page->payload_bytes());
    }
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_RestrictPageCompiled)->Arg(10)->Arg(100)->Arg(500)->Arg(1000);

void BM_ProjectPage(benchmark::State& state) {
  BenchData& d = Data();
  const std::vector<int> indices = {0, 6, 8};
  size_t bytes = 0;
  for (auto _ : state) {
    CountingSink sink;
    for (const PagePtr& page : d.pages) {
      DFDB_CHECK_OK(ProjectPage(d.schema, indices, *page, &sink));
      bytes += static_cast<size_t>(page->payload_bytes());
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_ProjectPage);

void BM_NestedLoopsJoinPage(benchmark::State& state) {
  BenchData& d = Data();
  ExprPtr pred = Eq(Col("k100"), RightCol("k100"));
  DFDB_CHECK_OK(pred->Bind(d.schema, &d.schema));
  size_t pairs = 0;
  for (auto _ : state) {
    CountingSink sink;
    DFDB_CHECK_OK(JoinPages(d.schema, d.schema, *pred, *d.pages[0],
                            *d.small_pages[0], &sink));
    pairs += static_cast<size_t>(d.pages[0]->num_tuples()) *
             static_cast<size_t>(d.small_pages[0]->num_tuples());
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(pairs));
}
BENCHMARK(BM_NestedLoopsJoinPage);

void BM_HashJoinPage(benchmark::State& state) {
  BenchData& d = Data();
  ExprPtr pred = Eq(Col("k100"), RightCol("k100"));
  DFDB_CHECK_OK(pred->Bind(d.schema, &d.schema));
  auto compiled = CompiledJoinPredicate::Compile(*pred, d.schema, d.schema);
  DFDB_CHECK(compiled.ok());
  JoinScratch scratch;
  size_t pairs = 0;
  for (auto _ : state) {
    CountingSink sink;
    DFDB_CHECK_OK(JoinPages(*compiled, *d.pages[0], *d.small_pages[0],
                            &scratch, &sink, nullptr));
    pairs += static_cast<size_t>(d.pages[0]->num_tuples()) *
             static_cast<size_t>(d.small_pages[0]->num_tuples());
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(pairs));
}
BENCHMARK(BM_HashJoinPage);

void BM_SortMergeJoin(benchmark::State& state) {
  BenchData& d = Data();
  const int key = 6;  // k100.
  for (auto _ : state) {
    CountingSink sink;
    DFDB_CHECK_OK(SortMergeJoin(d.schema, d.small_pages, key, d.schema,
                                d.small_pages, key, &sink));
    benchmark::DoNotOptimize(sink.count());
  }
}
BENCHMARK(BM_SortMergeJoin);

void BM_DuplicateElimination(benchmark::State& state) {
  BenchData& d = Data();
  const std::vector<int> indices = {4};  // k10: heavy duplication.
  for (auto _ : state) {
    DuplicateEliminator dedup;
    size_t fresh = 0;
    std::string projected;
    for (const PagePtr& page : d.pages) {
      for (int i = 0; i < page->num_tuples(); ++i) {
        ProjectTupleInto(d.schema, page->tuple(i), indices, &projected);
        if (dedup.Insert(Slice(projected))) ++fresh;
      }
    }
    benchmark::DoNotOptimize(fresh);
  }
}
BENCHMARK(BM_DuplicateElimination);

void BM_Aggregate(benchmark::State& state) {
  BenchData& d = Data();
  std::vector<AggregateSpec> specs;
  specs.push_back({AggregateSpec::Func::kCount, "", "cnt"});
  specs.push_back({AggregateSpec::Func::kSum, "k1000", "total"});
  Schema out = Schema::CreateOrDie({Column::Int32("k100"),
                                    Column::Int64("cnt"),
                                    Column::Int64("total")});
  for (auto _ : state) {
    auto agg = Aggregator::Create(d.schema, out, {"k100"}, specs);
    DFDB_CHECK(agg.ok());
    for (const PagePtr& page : d.pages) {
      DFDB_CHECK_OK(agg->Consume(*page));
    }
    CountingSink sink;
    DFDB_CHECK_OK(agg->Finish(&sink));
    benchmark::DoNotOptimize(sink.count());
  }
}
BENCHMARK(BM_Aggregate);

void BM_TupleEncode(benchmark::State& state) {
  Schema schema = BenchmarkSchema();
  std::vector<Value> row{
      Value::Int32(1),  Value::Int32(2),  Value::Int32(0), Value::Int32(1),
      Value::Int32(5),  Value::Int32(10), Value::Int32(42), Value::Int32(999),
      Value::Double(0.5), Value::Char("padpadpad")};
  for (auto _ : state) {
    auto encoded = EncodeTuple(schema, row);
    DFDB_CHECK(encoded.ok());
    benchmark::DoNotOptimize(*encoded);
  }
}
BENCHMARK(BM_TupleEncode);

void BM_PageAppend(benchmark::State& state) {
  Schema schema = BenchmarkSchema();
  const std::string tuple(static_cast<size_t>(schema.tuple_width()), 'x');
  for (auto _ : state) {
    auto page = Page::Create(1, schema.tuple_width(), 16384);
    DFDB_CHECK(page.ok());
    while (!page->full()) {
      DFDB_CHECK_OK(page->Append(Slice(tuple)));
    }
    benchmark::DoNotOptimize(page->num_tuples());
  }
}
BENCHMARK(BM_PageAppend);

/// --micro: google-benchmark suite, defaulting --benchmark_out to
/// results/bench_operators_micro.json (explicit flags still win).
int MicroMain(int argc, char** argv) {
  std::vector<char*> args;
  args.push_back(argv[0]);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--micro") == 0) continue;
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
    args.push_back(argv[i]);
  }
  static char out_flag[] =
      "--benchmark_out=results/bench_operators_micro.json";
  static char fmt_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    ::mkdir("results", 0755);  // Best effort.
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

int Main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--micro") == 0) return MicroMain(argc, argv);
  }
  return GaugeMain(argc, argv);
}

}  // namespace
}  // namespace dfdb

int main(int argc, char** argv) { return dfdb::Main(argc, argv); }
