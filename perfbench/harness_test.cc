/// \file harness_test.cc
/// \brief Self-tests of the benchmark's own helpers: percentile and
/// sample-count rules, span self time, the answer check, and wire_mix's
/// r14 row-count check. Exits non-zero on the first failed check.
///
///   cmake --build .bench_build --target perfbench_selftest
///   ctest --test-dir .bench_build

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "engine/run.h"
#include "harness.h"
#include "workload.h"
#include "workload/paper_benchmark.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

void TestPercentiles() {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT(Percentile(hundred, 0.5) == 50);
  EXPECT(Percentile(hundred, 0.9) == 90);
  EXPECT(Percentile(hundred, 0.99) == 99);
  EXPECT(Percentile(hundred, 1.0) == 100);
  // 0.9 * 10 must be rank 9, not 10 through floating-point round-up.
  const std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT(Percentile(ten, 0.9) == 9);
  EXPECT(Percentile({7.0}, 0.5) == 7);

  // A tail is printed only with at least ten samples beyond it.
  EXPECT(TailHasTenBeyond(100, 0.9));
  EXPECT(!TailHasTenBeyond(99, 0.9));
  EXPECT(!TailHasTenBeyond(100, 0.99));
  EXPECT(TailHasTenBeyond(1000, 0.99));
  EXPECT(!TailHasTenBeyond(0, 0.5));

  std::vector<double> shuffled;
  for (int i = 1000; i >= 1; --i) shuffled.push_back(i);
  const LatencySummary s = Summarize(shuffled);
  EXPECT(s.n == 1000);
  EXPECT(s.p50 == 500);
  EXPECT(s.p90 == 900);
  EXPECT(s.p99 == 990);
  const LatencySummary few = Summarize(std::vector<double>(50, 3.0));
  EXPECT(few.p50 == 3.0);
  EXPECT(few.p90 < 0);
  EXPECT(few.p99 < 0);
  EXPECT(few.ToString() == "n=50 p50=3.0000");
}

void TestSelfTime() {
  SpanRecorder off(false);
  EXPECT(off.Add("x.y", 0, 1, -1, 0) == 0);
  EXPECT(off.Spans().empty());

  SpanRecorder rec(true);
  const int64_t root = rec.Add("bench.batch", 0, 100, -1, 1);
  // Overlapping children count once; a child running past the parent's
  // end is clipped to it.
  rec.Add("engine.query", 10, 30, root, 1);
  rec.Add("engine.query", 20, 50, root, 1);
  const int64_t late = rec.Add("engine.query", 90, 120, root, 1);
  rec.Add("net.read", 95, 100, late, 1);
  const std::vector<Span> spans = rec.Spans();
  const auto self = SelfTimeNs(spans);
  EXPECT(self.at(root) == 100 - 40 - 10);
  EXPECT(self.at(late) == 30 - 5);
  const auto layers = LayerSelfTimeNs(spans);
  EXPECT(layers.at("bench") == 50);
  EXPECT(layers.at("engine") == 20 + 30 + 25);
  EXPECT(layers.at("net") == 5);

  // A childless span is all self time; so is an empty one.
  SpanRecorder flat(true);
  const int64_t a = flat.Add("machine.run", 5, 17, -1, 2);
  const int64_t b = flat.Add("machine.run", 17, 17, -1, 3);
  const auto flat_self = SelfTimeNs(flat.Spans());
  EXPECT(flat_self.at(a) == 12);
  EXPECT(flat_self.at(b) == 0);
}

std::string Tuple(const dfdb::Schema& schema, int32_t k, double v,
                  const char* pad) {
  std::string t(static_cast<size_t>(schema.tuple_width()), ' ');
  std::memcpy(t.data() + schema.offset(0), &k, sizeof(k));
  std::memcpy(t.data() + schema.offset(1), &v, sizeof(v));
  std::memcpy(t.data() + schema.offset(2), pad, std::strlen(pad));
  return t;
}

void TestAnswerCheck() {
  const dfdb::Schema schema = dfdb::Schema::CreateOrDie(
      {dfdb::Column::Int32("k"), dfdb::Column::Double("s"),
       dfdb::Column::Char("pad", 6)});
  auto answer = [&](const std::vector<std::string>& tuples) {
    std::string packed;
    for (const std::string& t : tuples) packed += t;
    return Answer(schema, packed.data(), tuples.size());
  };
  const std::vector<std::string> rows = {
      Tuple(schema, 1, 0.1 + 0.2, "a"), Tuple(schema, 2, -5.5, "b"),
      Tuple(schema, 2, 1e300, "b"), Tuple(schema, 3, 0.0, "c")};
  const Answer want = answer(rows);
  std::string why;
  EXPECT(want.rows() == 4);
  EXPECT(want.Matches(answer({rows[3], rows[1], rows[0], rows[2]}), &why));

  // Doubles may differ in the last bits (summation order)...
  EXPECT(want.Matches(answer({Tuple(schema, 1, 0.3, "a"), rows[1], rows[2],
                              rows[3]}),
                      &why));
  // ...but not beyond a relative 1e-9.
  EXPECT(!want.Matches(answer({Tuple(schema, 1, 0.3000001, "a"), rows[1],
                               rows[2], rows[3]}),
                       &why));
  EXPECT(why.find("double") != std::string::npos);
  // Every other byte must match exactly.
  std::string corrupt = rows[2];
  corrupt[static_cast<size_t>(schema.offset(2))] = 'z';
  EXPECT(!want.Matches(answer({rows[0], rows[1], corrupt, rows[3]}), &why));
  EXPECT(!want.Matches(answer({rows[0], rows[1], rows[2],
                               Tuple(schema, 4, 0.0, "c")}),
                       &why));
  // Missing and duplicated rows fail.
  EXPECT(!want.Matches(answer({rows[0], rows[1], rows[2]}), &why));
  EXPECT(why.find("expected 4 rows") != std::string::npos);
  EXPECT(!want.Matches(answer({rows[0], rows[1], rows[2], rows[2]}), &why));
  // A different schema fails even with equal bytes.
  const dfdb::Schema other = dfdb::Schema::CreateOrDie(
      {dfdb::Column::Int32("k"), dfdb::Column::Int64("s"),
       dfdb::Column::Char("pad", 6)});
  std::string packed;
  for (const std::string& t : rows) packed += t;
  EXPECT(!want.Matches(Answer(other, packed.data(), rows.size()), &why));

  // The digest passes the same rows in any order, byte for byte only.
  auto digest = [&](const std::vector<std::string>& tuples) {
    RowDigest d;
    for (const std::string& t : tuples) d.Add(t.data(), t.size());
    return d;
  };
  EXPECT(want.SameBytes(schema, digest({rows[3], rows[1], rows[0], rows[2]})));
  EXPECT(!want.SameBytes(other, digest(rows)));
  EXPECT(!want.SameBytes(schema, digest({rows[0], rows[1], corrupt, rows[3]})));
  EXPECT(!want.SameBytes(schema, digest({rows[0], rows[1], rows[2]})));
  EXPECT(!want.SameBytes(schema,
                         digest({rows[0], rows[1], rows[2], rows[2]})));
  EXPECT(!want.SameBytes(schema, digest({Tuple(schema, 1, 0.3, "a"), rows[1],
                                         rows[2], rows[3]})));

  EXPECT(DoublesClose(1.0, 1.0 + 1e-12));
  EXPECT(!DoublesClose(1.0, 1.0 + 1e-8));
  EXPECT(DoublesClose(0.0, 0.0));
  EXPECT(!DoublesClose(0.0, 1e-300));
}

uint64_t Rows(dfdb::StorageEngine* storage) {
  auto rows = RowCount(storage, "r14");
  EXPECT(rows.ok());
  return rows.ok() ? *rows : 0;
}

void Write(dfdb::StorageEngine* storage, const char* text) {
  auto plan = PlanText(text, storage->catalog(), nullptr);
  EXPECT(plan.ok());
  if (!plan.ok()) return;
  dfdb::ExecOptions options;
  options.num_processors = 2;
  EXPECT(dfdb::RunQuery(storage, **plan, options).ok());
}

void TestRowCountCheck() {
  dfdb::StorageEngine storage(16384);
  EXPECT(dfdb::BuildPaperDatabase(&storage, 0.05, 7).ok());
  Write(&storage, kWireDelete);
  const uint64_t start = Rows(&storage);
  EXPECT(start > 0);
  EXPECT(CheckRowCountUnchanged("r14", start, start).empty());

  // wire_mix's writers: an append is undone by the following delete.
  for (int round = 0; round < 3; ++round) {
    Write(&storage, kWireAppend);
    EXPECT(Rows(&storage) > start);
    Write(&storage, kWireDelete);
  }
  EXPECT(CheckRowCountUnchanged("r14", start, Rows(&storage)).empty());

  // An append of rows the delete never removes grows r14: caught.
  Write(&storage, "append(restrict(r10, k1000 < 50), r14)");
  Write(&storage, kWireDelete);
  const std::string why = CheckRowCountUnchanged("r14", start, Rows(&storage));
  EXPECT(!why.empty());
  EXPECT(why.find("not stationary") != std::string::npos);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestSelfTime();
  perfbench::TestAnswerCheck();
  perfbench::TestRowCountCheck();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
