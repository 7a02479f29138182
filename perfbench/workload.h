/// \file workload.h
/// \brief The benchmark's workload interface and the helpers its
/// workloads share.

#ifndef DFDB_PERFBENCH_WORKLOAD_H_
#define DFDB_PERFBENCH_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "engine/engine_stats.h"
#include "engine/query_result.h"
#include "harness.h"
#include "ra/optimizer.h"
#include "storage/storage_engine.h"

namespace perfbench {

/// Engine worker threads of the paper-database workloads (events_scan uses
/// one): with the main thread and any client threads mostly blocked, this
/// keeps a run at or below two busy cores.
inline constexpr int kWorkers = 2;

/// Data seed of the paper database in every paper-database workload: the
/// seed the committed figures were made with. Multi-join result sizes swing
/// widely between data seeds (the key domains do not scale), so these
/// workloads take their op order, not their data, from --seed.
inline constexpr uint64_t kPaperDataSeed = 42;

struct RunContext {
  uint64_t seed = 1;
  /// Records spans around calls into the program (enabled on traced runs).
  SpanRecorder* spans = nullptr;
  /// paper10_engine only: the committed FIG-3.1 makespans the simulator
  /// must reproduce, "page:16:33967946764,relation:4:...", in nanoseconds.
  std::string fig31;
};

/// A closed-loop workload. main.cc calls Prepare() once, then Setup()
/// several times (each call rebuilds everything from scratch, so set-up
/// time has a median), then Run() once, then Finish().
class Workload {
 public:
  virtual ~Workload() = default;

  /// Names of the op classes behind primary_p50_ms / secondary_p50_ms.
  virtual const char* primary_class() const = 0;
  virtual const char* secondary_class() const = 0;

  /// Makes, untimed, what every set-up shares and a user's set-up would not
  /// pay for: the reference answers, which take most of the time otherwise.
  virtual dfdb::Status Prepare() { return dfdb::Status::OK(); }

  /// Drops any previous instance and builds a fresh one: data, indexes,
  /// servers and connections, then a warm-up cycle.
  virtual dfdb::Status Setup() = 0;

  /// Issues ops until \p deadline has passed, finishing the cycle in
  /// progress, and checks every answer.
  virtual void Run(Clock::time_point deadline, OpLog* log) = 0;

  /// End-of-run checks and per-layer metrics (after peak RSS is read).
  virtual void Finish(const OpLog& log, Report* report) = 0;
};

std::unique_ptr<Workload> MakeWireMix(const RunContext& ctx);
std::unique_ptr<Workload> MakePaper10Engine(const RunContext& ctx);
std::unique_ptr<Workload> MakeEventsScan(const RunContext& ctx);

// --- Shared helpers ------------------------------------------------------------

/// The canonical answer of an in-process result.
Answer AnswerOf(const dfdb::QueryResult& result);

/// True when \p got matches \p want, otherwise false with a reason. Rows
/// identical to the expected bytes pass on their digest alone; anything
/// else gets the full comparison of Answer::Matches().
bool CheckAnswer(const Answer& want, const dfdb::QueryResult& got,
                 std::string* why);

/// Times ParseQuery and Optimizer::Optimize on each text (repeated) and
/// reports ra.parse_us_p50 / ra.optimize_us_p50.
void TimeRaLayer(const std::vector<std::string>& texts,
                 const dfdb::Catalog& catalog, Report* report);

/// Reports the optimizer's marks on the workload's plans (ra.scans_*,
/// ra.edges_fused).
void ReportPlanMarks(const dfdb::OptimizerReport& marks, Report* report);

/// Reports engine, operator, storage and index per-layer values from the
/// difference of two aggregate ExecStats over \p ops ops. \p scanned_pages
/// is the page count of the relations the ops scanned, for the pruning
/// ratio (0 when not meaningful).
void ReportEngineDelta(const dfdb::ExecStats& before,
                       const dfdb::ExecStats& after, uint64_t ops,
                       uint64_t scanned_pages, Report* report);

/// Sums two ExecStats' counters used by ReportEngineDelta (for workloads
/// with more than one scheduler).
dfdb::ExecStats AddStats(const dfdb::ExecStats& a, const dfdb::ExecStats& b);

/// Parses and optimizes one RAQL text, adding its marks to \p marks
/// (optional).
dfdb::StatusOr<dfdb::PlanNodePtr> PlanText(const std::string& text,
                                           const dfdb::Catalog& catalog,
                                           dfdb::OptimizerReport* marks);

/// wire_mix's two writes: each round appends r10's k1000 >= 950 rows to
/// r14 and then deletes r14's k1000 >= 950 rows again.
extern const char kWireAppend[];
extern const char kWireDelete[];

/// Committed row count of \p relation (a full scan through RunQuery).
dfdb::StatusOr<uint64_t> RowCount(dfdb::StorageEngine* storage,
                                  const std::string& relation);

/// wire_mix's end-of-run stationarity check: empty when \p end equals
/// \p start, otherwise the failure message.
std::string CheckRowCountUnchanged(const std::string& relation, uint64_t start,
                                   uint64_t end);

/// Seeded permutation of 0..n-1.
std::vector<int> SeededOrder(int n, uint64_t seed);

}  // namespace perfbench

#endif  // DFDB_PERFBENCH_WORKLOAD_H_
