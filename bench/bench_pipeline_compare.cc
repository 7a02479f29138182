/// \file bench_pipeline_compare.cc
/// \brief PIPE — data-flow vs strict pipelining vs serial (Section 2.3).
///
/// The paper contrasts data-flow execution with the pipelined processing
/// of Smith & Chang and Yao: pipelining caps concurrency at one processor
/// per query-tree node and (per Yao) requires an operator to finish before
/// its successor starts. We compare, on the machine simulator:
///   serial      — one IP, relation granularity (one node at a time);
///   pipelined   — relation granularity with #IPs = #nodes (one processor
///                 per node, successors wait for completion);
///   data-flow   — page granularity with the same #IPs, free assignment.
/// Per-edge pipeline fusion on the same mix is bench_pipeline_fusion's.
/// Also reports the uniprocessor nested-loops vs sorted-merge baseline on
/// the reference executor (Blasgen & Eswaran, Section 2.1).

#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "engine/reference.h"
#include "machine/simulator.h"
#include "ra/analyzer.h"

namespace dfdb {
namespace {

int Main(int argc, char** argv) {
  const double scale = bench::FlagDouble(argc, argv, "scale", 1.0);
  std::printf("== PIPE: data-flow vs pipelining vs serial ==\n");
  StorageEngine storage(/*default_page_bytes=*/16384);
  bench::BuildDatabaseOrDie(&storage, scale);
  std::vector<Query> queries = MakePaperBenchmarkQueries();

  bench::Table table(
      {"query", "nodes", "serial_s", "pipelined_s", "dataflow_s",
       "dataflow_speedup_vs_pipe"});
  Analyzer analyzer(&storage.catalog());
  for (const Query& q : queries) {
    auto clone = q.root->Clone();
    auto analysis = analyzer.Resolve(clone.get());
    DFDB_CHECK(analysis.ok()) << analysis.status();
    // Instructions = non-scan nodes; pipelining grants one IP each.
    const int instr_count =
        analysis->num_nodes == 1
            ? 1
            : analysis->num_joins + analysis->num_restricts +
                  analysis->num_projects;
    double times[3];
    for (int mode = 0; mode < 3; ++mode) {
      MachineOptions opts;
      opts.config.page_bytes = 16384;
      opts.config.num_instruction_controllers = 8;
      switch (mode) {
        case 0:  // Serial.
          opts.granularity = Granularity::kRelation;
          opts.config.num_instruction_processors = 1;
          break;
        case 1:  // Pipelined: one processor per node, barrier semantics.
          opts.granularity = Granularity::kRelation;
          opts.config.num_instruction_processors = std::max(1, instr_count);
          break;
        case 2:  // Data-flow: page granularity, same resources.
          opts.granularity = Granularity::kPage;
          opts.config.num_instruction_processors = std::max(1, instr_count);
          break;
      }
      MachineSimulator sim(&storage, opts);
      auto report = sim.Run({q.root.get()});
      DFDB_CHECK(report.ok()) << report.status();
      times[mode] = report->makespan.ToSecondsF();
    }
    table.AddRow({q.name, StrFormat("%d", instr_count),
                  StrFormat("%.3f", times[0]), StrFormat("%.3f", times[1]),
                  StrFormat("%.3f", times[2]),
                  StrFormat("%.2fx", times[1] / times[2])});
  }
  table.Print("pipe");

  // Uniprocessor join-algorithm baseline: nested loops vs sorted merge.
  std::printf("-- uniprocessor join algorithms (reference executor, host "
              "wall clock) --\n");
  bench::Table joins({"query", "nested_loops_ms", "sort_merge_ms"});
  ReferenceExecutor reference(&storage);
  for (const Query& q : queries) {
    if (q.id < 3) continue;  // Restrict-only queries have no join.
    double ms[2];
    for (int alg = 0; alg < 2; ++alg) {
      const auto start = std::chrono::steady_clock::now();
      auto result = reference.Execute(*q.root, /*use_sort_merge=*/alg == 1);
      DFDB_CHECK(result.ok()) << result.status();
      ms[alg] = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    }
    joins.AddRow({q.name, StrFormat("%.1f", ms[0]), StrFormat("%.1f", ms[1])});
  }
  joins.Print("pipe_joins");
  bench::WriteJson("bench_pipeline_compare", argc, argv);
  return 0;
}

}  // namespace
}  // namespace dfdb

int main(int argc, char** argv) { return dfdb::Main(argc, argv); }
