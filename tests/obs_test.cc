/// \file obs_test.cc
/// \brief The unified observability layer: registry semantics, trace
/// determinism, zero overhead when disabled, and the fault-trace contract.
///
/// The headline contracts under test:
///   - two identically-seeded machine runs export byte-identical JSON
///     (full timing included: simulated time is deterministic);
///   - two identically-seeded 1-worker engine runs export byte-identical
///     canonical JSON (timing omitted: wall clock is not deterministic);
///   - with tracing disabled no trace is allocated at all;
///   - under a fault storm the trace carries exactly one kFaultInjected
///     event per fault counted in MachineReport::faults.injected.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/run.h"
#include "engine/scheduler.h"
#include "machine/simulator.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace dfdb {
namespace {

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(JsonWriterTest, ObjectsArraysAndCommas) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("n");
  w.Uint(3);
  w.Key("xs");
  w.BeginArray();
  w.Uint(1);
  w.Int(-2);
  w.Bool(true);
  w.Null();
  w.EndArray();
  w.Key("nested");
  w.BeginObject();
  w.Key("s");
  w.String("hi");
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.TakeString(),
            "{\"n\":3,\"xs\":[1,-2,true,null],\"nested\":{\"s\":\"hi\"}}");
}

TEST(JsonWriterTest, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(obs::JsonEscape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(obs::JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriterTest, DoublesRoundTripDeterministically) {
  obs::JsonWriter w1, w2;
  w1.Double(0.1);
  w2.Double(0.1);
  EXPECT_EQ(w1.str(), w2.str());
  EXPECT_EQ(w1.str(), "0.10000000000000001");
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, SetAddGetAndSortedExport) {
  obs::MetricsRegistry registry;
  registry.Set("machine.outer_ring_bytes", 100);
  registry.Add("engine.tasks_executed", 7);
  registry.Add("engine.tasks_executed", 3);
  EXPECT_EQ(registry.GetOr("engine.tasks_executed", 0), 10u);
  EXPECT_EQ(registry.GetOr("missing", 42), 42u);
  // Keys export sorted regardless of insertion order.
  EXPECT_EQ(registry.ToJson(),
            "{\"engine.tasks_executed\":10,\"machine.outer_ring_bytes\":100}");
  // Human dump mentions every counter.
  const std::string text = registry.ToString();
  EXPECT_NE(text.find("engine.tasks_executed"), std::string::npos);
  EXPECT_NE(text.find("machine.outer_ring_bytes"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Exported counter names
// ---------------------------------------------------------------------------

std::vector<std::string> KeysOf(const obs::MetricsRegistry& registry) {
  std::vector<std::string> keys;
  for (const auto& [name, value] : registry.counters()) keys.push_back(name);
  return keys;
}

// Golden key lists: benches, baselines and dashboards read these names, so
// a rename or a dropped counter must show up here as a deliberate edit.
TEST(CounterNamesTest, ExportedKeyListsAreStable) {
  EXPECT_EQ(KeysOf(ExecStats{}.ToReport().counters),
            (std::vector<std::string>{
      "engine.arbitration_bytes", "engine.distribution_bytes",
      "engine.faults.injected", "engine.faults.poison_dropped",
      "engine.faults.redispatched_tasks", "engine.faults.workers_abandoned",
      "engine.index.fallback_scans", "engine.index.gridfile_probes",
      "engine.index.pages_pruned", "engine.index.zonemap_hits",
      "engine.kernel.compile_fallbacks", "engine.kernel.compiled_pages",
      "engine.kernel.hash_build_collisions", "engine.kernel.hash_joins",
      "engine.kernel.interpreted_pages", "engine.kernel.nested_joins",
      "engine.mvcc.commits", "engine.mvcc.gc_reclaimed",
      "engine.mvcc.pages_copied", "engine.mvcc.snapshots_captured",
      "engine.mvcc.snapshots_open", "engine.mvcc.versions_live",
      "engine.network_bytes", "engine.overhead_bytes", "engine.packets",
      "engine.pages_produced", "engine.pipeline.fused_edges",
      "engine.pipeline.fused_pages", "engine.pipeline.materialized_edges",
      "engine.pipeline.pages_elided", "engine.pipeline.runtime_fallbacks",
      "engine.pushdown.bytes_elided", "engine.pushdown.fallbacks",
      "engine.pushdown.pages_filtered", "engine.pushdown.tuples_in",
      "engine.pushdown.tuples_out", "engine.scan_throttle_yields",
      "engine.sched.admitted", "engine.sched.queue_wait_ns",
      "engine.sched.queued", "engine.sched.requeues", "engine.sched.skips",
      "engine.tasks_executed",
      "engine.tuples_produced", "storage.cache_hits",
      "storage.cache_read_bytes", "storage.cache_reads",
      "storage.cache_write_bytes", "storage.cache_writes",
      "storage.disk_read_bytes", "storage.disk_reads",
      "storage.disk_write_bytes", "storage.disk_writes"}));

  EXPECT_EQ(KeysOf(MachineReport{}.ToReport().counters),
            (std::vector<std::string>{
      "machine.broadcasts", "machine.cache_to_ic_bytes",
      "machine.control_packets", "machine.direct_routes",
      "machine.disk_read_bytes", "machine.disk_write_bytes", "machine.events",
      "machine.faults.cache_stall_ns", "machine.faults.cache_stalls",
      "machine.faults.ic_failures", "machine.faults.injected",
      "machine.faults.instructions_rehomed", "machine.faults.ip_kills",
      "machine.faults.packets_corrupted", "machine.faults.packets_dropped",
      "machine.faults.redispatches", "machine.faults.retries",
      "machine.faults.retry_ns_lost", "machine.faults.timeouts",
      "machine.ic_to_cache_bytes", "machine.index.fallback_scans",
      "machine.index.gridfile_probes", "machine.index.pages_pruned",
      "machine.index.zonemap_hits", "machine.inner_ring_bytes",
      "machine.instruction_packets", "machine.ip_busy_ns",
      "machine.kernel.compile_fallbacks", "machine.kernel.compiled_pages",
      "machine.kernel.hash_build_collisions", "machine.kernel.hash_joins",
      "machine.kernel.interpreted_pages", "machine.kernel.nested_joins",
      "machine.makespan_ns", "machine.num_ips", "machine.outer_ring_bytes",
      "machine.pipeline.fused_edges", "machine.pipeline.fused_pages",
      "machine.pipeline.materialized_edges", "machine.pipeline.pages_elided",
      "machine.pipeline.runtime_fallbacks", "machine.pushdown.bytes_elided",
      "machine.pushdown.fallbacks", "machine.pushdown.pages_filtered",
      "machine.pushdown.tuples_in", "machine.pushdown.tuples_out",
      "machine.result_packets"}));

  StorageEngine storage(/*default_page_bytes=*/2000);
  Scheduler scheduler(&storage, ExecOptions{});
  obs::MetricsRegistry live;
  scheduler.SnapshotMetrics(&live);
  EXPECT_EQ(KeysOf(live), (std::vector<std::string>{
      "engine.mvcc.commits", "engine.mvcc.gc_reclaimed",
      "engine.mvcc.last_commit_ts", "engine.mvcc.pages_copied",
      "engine.mvcc.snapshots_captured", "engine.mvcc.snapshots_open",
      "engine.mvcc.versions_live", "engine.sched.active_queries",
      "engine.sched.admitted", "engine.sched.cancelled",
      "engine.sched.completed", "engine.sched.pool.busy",
      "engine.sched.pool.peak_busy", "engine.sched.pool.workers",
      "engine.sched.queue_depth", "engine.sched.queue_wait_ns",
      "engine.sched.queued", "engine.sched.requeue_failures",
      "engine.sched.requeues", "engine.sched.skips",
      "engine.sched.submitted"}));
}

// The families both backends share: every table row is exported by both,
// under the same key after the backend prefix.
TEST(CounterNamesTest, SharedFamiliesExportOnBothBackends) {
  const obs::RunReport engine = ExecStats{}.ToReport();
  const obs::RunReport machine = MachineReport{}.ToReport();
  int rows = 0;
#define EXPECT_ON_BOTH(member, key, kind, help)                         \
  EXPECT_TRUE(engine.counters.Get("engine." key).has_value()) << key;   \
  EXPECT_TRUE(machine.counters.Get("machine." key).has_value()) << key; \
  ++rows;
  DFDB_PIPELINE_COUNTERS(EXPECT_ON_BOTH)
  DFDB_KERNEL_COUNTERS(EXPECT_ON_BOTH)
  DFDB_INDEX_COUNTERS(EXPECT_ON_BOTH)
  DFDB_PUSHDOWN_COUNTERS(EXPECT_ON_BOTH)
#undef EXPECT_ON_BOTH
  EXPECT_EQ(rows, 20);
}

TEST(CounterTableTest, SumsSkipGaugesAndToStringShowsNonZeroRows) {
  MvccStats a;
  a.snapshots_open = 3;  // Gauge.
  a.commits = 5;
  MvccStats b;
  b.snapshots_open = 7;
  b.commits = 2;
  a += b;
  EXPECT_EQ(a.snapshots_open, 3u);
  EXPECT_EQ(a.commits, 7u);
  a -= b;
  EXPECT_EQ(a.snapshots_open, 3u);
  EXPECT_EQ(a.commits, 5u);
  EXPECT_TRUE(a.any());
  EXPECT_FALSE(MvccStats{}.any());
  EXPECT_EQ(a.ToString(), "mvcc.snapshots_open=3 mvcc.commits=5");

  SchedCounters sched;
  sched.queue_wait_ns = 2500000;
  BufferStats buffer;
  buffer.disk_read_bytes = 2048;
  std::string out = "head";
  AppendCounters(&out, sched, BufferStats{}, buffer);
  EXPECT_EQ(out,
            "head | sched.queue_wait_ns=2.500ms | disk_read_bytes=2.00 KB");
}

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TEST(TraceRecorderTest, DisabledRecorderReturnsNull) {
  obs::TraceRecorder recorder(/*enabled=*/false);
  recorder.Record(obs::TraceEventKind::kTaskExecuted, 0, 1, 2, 3, "x", 4);
  EXPECT_EQ(recorder.Finish(), nullptr);
}

TEST(TraceRecorderTest, EventsComeBackInSequenceOrder) {
  obs::TraceRecorder recorder(/*enabled=*/true);
  for (int i = 0; i < 100; ++i) {
    recorder.Record(i % 2 == 0 ? obs::TraceEventKind::kTaskClaimed
                               : obs::TraceEventKind::kTaskExecuted,
                    /*query=*/static_cast<uint64_t>(i), i, -1, 0, nullptr, i);
  }
  std::shared_ptr<const obs::Trace> trace = recorder.Finish();
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->size(), 100u);
  for (size_t i = 0; i < trace->events().size(); ++i) {
    EXPECT_EQ(trace->events()[i].seq, i);
    EXPECT_EQ(trace->events()[i].query, i);
  }
  EXPECT_EQ(trace->CountKind(obs::TraceEventKind::kTaskClaimed), 50u);
  EXPECT_EQ(trace->CountKind(obs::TraceEventKind::kTaskExecuted), 50u);
}

// ---------------------------------------------------------------------------
// Shared fixture: a small database + plans for both backends
// ---------------------------------------------------------------------------

class ObsBackendTest : public ::testing::Test {
 protected:
  static std::unique_ptr<StorageEngine> FreshStorage() {
    auto storage = std::make_unique<StorageEngine>(/*default_page_bytes=*/2000);
    auto a = GenerateRelation(storage.get(), "alpha", 300, 3);
    auto b = GenerateRelation(storage.get(), "beta", 120, 4);
    EXPECT_TRUE(a.ok() && b.ok());
    return storage;
  }

  static std::vector<PlanNodePtr> Plans() {
    std::vector<PlanNodePtr> plans;
    plans.push_back(
        MakeJoin(MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(400))),
                 MakeScan("beta"), Eq(Col("k100"), RightCol("k100"))));
    plans.push_back(MakeRestrict(MakeScan("beta"), Ge(Col("k1000"), Lit(200))));
    return plans;
  }

  static std::vector<const PlanNode*> Raw(const std::vector<PlanNodePtr>& p) {
    std::vector<const PlanNode*> raw;
    for (const auto& n : p) raw.push_back(n.get());
    return raw;
  }

  static MachineOptions MachineOpts(bool trace) {
    MachineOptions opts;
    opts.granularity = Granularity::kPage;
    opts.config.num_instruction_processors = 4;
    opts.config.num_instruction_controllers = 2;
    opts.config.page_bytes = 2000;
    opts.config.ic_local_memory_pages = 8;
    opts.config.disk_cache_pages = 64;
    opts.enable_trace = trace;
    return opts;
  }
};

// ---------------------------------------------------------------------------
// Machine determinism and fault-trace contract
// ---------------------------------------------------------------------------

TEST_F(ObsBackendTest, MachineRunsExportByteIdenticalJson) {
  // Two identically-configured runs — including a seeded fault storm — must
  // export byte-identical full reports (timestamps included).
  std::string docs[2];
  std::string chrome[2];
  for (int run = 0; run < 2; ++run) {
    auto storage = FreshStorage();
    auto plans = Plans();
    MachineOptions opts = MachineOpts(/*trace=*/true);
    opts.fault_plan = FaultPlan::RandomStorm(/*seed=*/7, /*ip_kills=*/1,
                                             /*packet_faults=*/4,
                                             SimTime::Millis(500));
    opts.fault_plan.detection_timeout = SimTime::Micros(500);
    opts.fault_plan.retry_backoff = SimTime::Micros(100);
    MachineSimulator sim(storage.get(), opts);
    auto report = sim.Run(Raw(plans));
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_NE(report->trace, nullptr);
    EXPECT_GT(report->trace->size(), 0u);
    docs[run] = report->ToReport().ToJson(/*include_timing=*/true);
    chrome[run] = report->ToReport().ToChromeTrace();
  }
  EXPECT_EQ(docs[0], docs[1]);
  EXPECT_EQ(chrome[0], chrome[1]);
  EXPECT_NE(docs[0].find("\"backend\":\"machine\""), std::string::npos);
  EXPECT_NE(docs[0].find("machine.outer_ring_bytes"), std::string::npos);
  EXPECT_NE(chrome[0].find("traceEvents"), std::string::npos);
}

TEST_F(ObsBackendTest, MachineTraceCarriesEveryInjectedFault) {
  auto storage = FreshStorage();
  auto plans = Plans();
  MachineOptions opts = MachineOpts(/*trace=*/true);
  opts.fault_plan = FaultPlan::RandomStorm(/*seed=*/11, /*ip_kills=*/2,
                                           /*packet_faults=*/6,
                                           SimTime::Millis(500));
  opts.fault_plan.detection_timeout = SimTime::Micros(500);
  opts.fault_plan.retry_backoff = SimTime::Micros(100);
  MachineSimulator sim(storage.get(), opts);
  auto report = sim.Run(Raw(plans));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_NE(report->trace, nullptr);
  // The contract: one kFaultInjected trace event per counted injection, and
  // recovery work leaves kFaultRecovered events behind.
  EXPECT_EQ(report->trace->CountKind(obs::TraceEventKind::kFaultInjected),
            report->faults.injected);
  EXPECT_GT(report->faults.injected, 0u);
  if (report->faults.retries + report->faults.redispatches +
          report->faults.instructions_rehomed >
      0) {
    EXPECT_GT(report->trace->CountKind(obs::TraceEventKind::kFaultRecovered),
              0u);
  }
}

TEST_F(ObsBackendTest, MachineTracingDisabledMeansNoTrace) {
  auto storage = FreshStorage();
  auto plans = Plans();
  MachineSimulator sim(storage.get(), MachineOpts(/*trace=*/false));
  auto report = sim.Run(Raw(plans));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->trace, nullptr);
  // The RunReport JSON still exports fine, just without a trace field.
  const std::string doc = report->ToReport().ToJson();
  EXPECT_EQ(doc.find("\"trace\""), std::string::npos);
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_EQ(report->ToReport().ToChromeTrace(), "");
}

// ---------------------------------------------------------------------------
// Engine determinism, per-query stats, disabled-trace contract
// ---------------------------------------------------------------------------

TEST_F(ObsBackendTest, EngineSingleWorkerRunsExportByteIdenticalJson) {
  // With one worker the engine's event order is deterministic; the
  // canonical export (timing omitted) must be byte-identical across runs.
  std::string docs[2];
  for (int run = 0; run < 2; ++run) {
    auto storage = FreshStorage();
    auto plans = Plans();
    ExecOptions opts;
    opts.granularity = Granularity::kPage;
    opts.num_processors = 1;
    opts.page_bytes = 2000;
    opts.enable_trace = true;
    ExecStats stats;
    auto results = RunBatch(storage.get(), Raw(plans), opts, &stats);
    ASSERT_TRUE(results.ok()) << results.status();
    ASSERT_NE(stats.trace, nullptr);
    EXPECT_GT(stats.trace->size(), 0u);
    docs[run] = stats.ToReport().ToJson(/*include_timing=*/false);
  }
  EXPECT_EQ(docs[0], docs[1]);
  EXPECT_NE(docs[0].find("\"backend\":\"engine\""), std::string::npos);
  EXPECT_NE(docs[0].find("engine.arbitration_bytes"), std::string::npos);
  EXPECT_NE(docs[0].find("storage.cache_hits"), std::string::npos);
  // Canonical form omits every wall-clock-derived field.
  EXPECT_EQ(docs[0].find("\"seconds\""), std::string::npos);
  EXPECT_EQ(docs[0].find("\"ts_ns\""), std::string::npos);
}

TEST_F(ObsBackendTest, EngineAttachesPerQueryStatsToResults) {
  auto storage = FreshStorage();
  auto plans = Plans();
  ExecOptions opts;
  opts.granularity = Granularity::kPage;
  opts.num_processors = 2;
  opts.page_bytes = 2000;
  ExecStats batch;
  auto results = RunBatch(storage.get(), Raw(plans), opts, &batch);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 2u);
  uint64_t task_sum = 0;
  for (const QueryResult& r : *results) {
    EXPECT_GT(r.stats().tasks_executed, 0u);
    EXPECT_GT(r.stats().wall_seconds, 0.0);
    task_sum += r.stats().tasks_executed;
  }
  // Per-query work counters partition the batch aggregate.
  EXPECT_EQ(task_sum, batch.tasks_executed);
  EXPECT_GT(batch.wall_seconds, 0.0);
  // Tracing was off: no trace anywhere.
  EXPECT_EQ(batch.trace, nullptr);
  EXPECT_EQ((*results)[0].trace(), nullptr);
}

TEST_F(ObsBackendTest, EngineTraceEventsKeyedByBatchIndex) {
  auto storage = FreshStorage();
  auto plans = Plans();
  ExecOptions opts;
  opts.granularity = Granularity::kPage;
  opts.num_processors = 2;
  opts.page_bytes = 2000;
  opts.enable_trace = true;
  ExecStats batch;
  auto results = RunBatch(storage.get(), Raw(plans), opts, &batch);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_NE(batch.trace, nullptr);
  // Both queries contributed events, keyed 0 / 1 by batch position, and the
  // per-query results share the batch trace.
  bool saw[2] = {false, false};
  for (const obs::TraceEvent& e : batch.trace->events()) {
    ASSERT_LT(e.query, 2u);
    saw[e.query] = true;
  }
  EXPECT_TRUE(saw[0]);
  EXPECT_TRUE(saw[1]);
  EXPECT_EQ((*results)[0].trace(), batch.trace);
  EXPECT_GT(batch.trace->CountKind(obs::TraceEventKind::kTaskExecuted), 0u);
  EXPECT_GT(batch.trace->CountKind(obs::TraceEventKind::kPageProduced), 0u);
  EXPECT_GT(batch.trace->CountKind(obs::TraceEventKind::kPacketEnqueued), 0u);
}

TEST_F(ObsBackendTest, EnginePushedScanTracesSurvivorPayloadBytes) {
  // A pushed scan's kTaskExecuted events carry payload bytes, like the raw
  // scan's: the bytes of the survivors that ride the edge, not a count.
  auto storage = FreshStorage();
  auto plan = MakeRestrict(MakeScan("alpha"), Lt(Col("k1000"), Lit(400)));
  plan->children[0]->pushdown = true;
  ExecOptions opts;
  opts.num_processors = 2;
  opts.page_bytes = 2000;
  opts.enable_trace = true;
  ExecStats batch;
  ASSERT_OK_AND_ASSIGN(QueryResult result,
                       RunQuery(storage.get(), *plan, opts, &batch));
  ASSERT_NE(batch.trace, nullptr);
  ASSERT_GT(batch.pushdown.tuples_out, 0u);
  uint64_t steps = 0;
  uint64_t bytes = 0;
  for (const obs::TraceEvent& e : batch.trace->events()) {
    if (e.kind != obs::TraceEventKind::kTaskExecuted || e.detail == nullptr ||
        std::string(e.detail) != "scan-pushdown") {
      continue;
    }
    ++steps;
    bytes += e.bytes;
  }
  EXPECT_EQ(steps, batch.pushdown.pages_filtered);
  ASSERT_OK_AND_ASSIGN(HeapFile * alpha, storage->GetHeapFile("alpha"));
  EXPECT_EQ(bytes, batch.pushdown.tuples_out *
                       static_cast<uint64_t>(alpha->schema().tuple_width()));
  EXPECT_EQ(batch.pushdown.tuples_out, result.num_tuples());
}

TEST_F(ObsBackendTest, EngineFaultStormLeavesTraceEvidence) {
  auto storage = FreshStorage();
  auto plans = Plans();
  ExecOptions opts;
  opts.granularity = Granularity::kPage;
  opts.num_processors = 4;
  opts.page_bytes = 600;
  opts.enable_trace = true;
  opts.fault_plan.abandon_workers = 2;
  opts.fault_plan.abandon_after_tasks = 2;
  opts.fault_plan.poison_packets = 5;
  ExecStats batch;
  auto results = RunBatch(storage.get(), Raw(plans), opts, &batch);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_NE(batch.trace, nullptr);
  EXPECT_EQ(batch.trace->CountKind(obs::TraceEventKind::kFaultInjected),
            batch.faults_injected);
  EXPECT_EQ(batch.faults_injected, 7u);  // 2 abandons + 5 poison packets.
}

// ---------------------------------------------------------------------------
// RunReport cross-backend shape
// ---------------------------------------------------------------------------

TEST_F(ObsBackendTest, BothBackendsProduceComparableRunReports) {
  auto storage = FreshStorage();
  auto plans = Plans();

  MachineSimulator sim(storage.get(), MachineOpts(/*trace=*/false));
  auto machine_report = sim.Run(Raw(plans));
  ASSERT_TRUE(machine_report.ok()) << machine_report.status();
  obs::RunReport machine_run = machine_report->ToReport();

  ExecOptions opts;
  opts.granularity = Granularity::kPage;
  opts.num_processors = 2;
  opts.page_bytes = 2000;
  ExecStats stats;
  auto results = RunBatch(storage.get(), Raw(plans), opts, &stats);
  ASSERT_TRUE(results.ok()) << results.status();
  obs::RunReport engine_run = stats.ToReport();

  EXPECT_EQ(machine_run.backend, "machine");
  EXPECT_TRUE(machine_run.simulated_time);
  EXPECT_EQ(engine_run.backend, "engine");
  EXPECT_FALSE(engine_run.simulated_time);
  for (const obs::RunReport* run : {&machine_run, &engine_run}) {
    EXPECT_GT(run->seconds, 0.0);
    EXPECT_GT(run->data_bytes, 0u);
    EXPECT_GT(run->packets, 0u);
    EXPECT_EQ(run->faults, 0u);
    EXPECT_GT(run->bits_per_second(), 0.0);
    EXPECT_FALSE(run->counters.counters().empty());
    EXPECT_FALSE(run->ToString().empty());
  }
}

}  // namespace
}  // namespace dfdb
