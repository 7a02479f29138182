/// \file operators_test.cc
/// \brief Tests for the page-at-a-time operator kernels, including the
/// nested-loops vs sorted-merge equivalence property, the compiled aggregate
/// program fuzzed against the interpreted Aggregator, and ExactSum checked
/// against a big-integer oracle.

#include "operators/kernels.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>

#include "common/random.h"
#include "operators/aggregator.h"
#include "operators/compiled_aggregate.h"
#include "operators/dedup.h"
#include "operators/exact_sum.h"
#include "operators/set_ops.h"
#include "operators/sort_merge_join.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace dfdb {
namespace {

/// Materializes a generated relation's pages.
std::vector<PagePtr> PagesOf(StorageEngine* storage, const std::string& name) {
  auto file = storage->GetHeapFile(name);
  EXPECT_TRUE(file.ok());
  EXPECT_OK((*file)->Flush());
  std::vector<PagePtr> pages;
  for (PageId id : (*file)->PageIds()) {
    auto p = storage->page_store().Get(id);
    EXPECT_TRUE(p.ok());
    pages.push_back(*p);
  }
  return pages;
}

class OperatorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = std::make_unique<StorageEngine>(800);
    schema_ = BenchmarkSchema();
    ASSERT_OK_AND_ASSIGN(auto a, GenerateRelation(storage_.get(), "a", 300, 1));
    ASSERT_OK_AND_ASSIGN(auto b, GenerateRelation(storage_.get(), "b", 120, 2));
    (void)a;
    (void)b;
    a_pages_ = PagesOf(storage_.get(), "a");
    b_pages_ = PagesOf(storage_.get(), "b");
  }

  std::unique_ptr<StorageEngine> storage_;
  Schema schema_;
  std::vector<PagePtr> a_pages_;
  std::vector<PagePtr> b_pages_;
};

TEST_F(OperatorsTest, RestrictMatchesManualCount) {
  ExprPtr pred = Lt(Col("k1000"), Lit(500));
  ASSERT_OK(pred->Bind(schema_, nullptr));
  VectorSink sink;
  uint64_t expected = 0;
  for (const PagePtr& page : a_pages_) {
    ASSERT_OK(RestrictPage(schema_, *pred, *page, &sink));
    ASSERT_OK_AND_ASSIGN(uint64_t n, CountMatches(schema_, *pred, *page));
    expected += n;
  }
  EXPECT_EQ(sink.tuples().size(), expected);
  // Every emitted tuple satisfies the predicate.
  for (const std::string& t : sink.tuples()) {
    TupleView view(&schema_, Slice(t));
    ASSERT_OK_AND_ASSIGN(Value k, view.GetValue(7));
    EXPECT_LT(k.as_int32(), 500);
  }
}

TEST_F(OperatorsTest, ProjectKeepsColumnOrderAndWidth) {
  std::vector<int> indices = {7, 0};  // k1000, id.
  VectorSink sink;
  ASSERT_OK(ProjectPage(schema_, indices, *a_pages_[0], &sink));
  EXPECT_EQ(sink.tuples().size(),
            static_cast<size_t>(a_pages_[0]->num_tuples()));
  ASSERT_OK_AND_ASSIGN(Schema out, schema_.Project(indices));
  EXPECT_EQ(sink.tuples()[0].size(), static_cast<size_t>(out.tuple_width()));
  // Spot check: first projected field equals source k1000.
  TupleView src(&schema_, a_pages_[0]->tuple(0));
  TupleView dst(&out, Slice(sink.tuples()[0]));
  ASSERT_OK_AND_ASSIGN(Value sk, src.GetValue(7));
  ASSERT_OK_AND_ASSIGN(Value dk, dst.GetValue(0));
  EXPECT_EQ(sk.as_int32(), dk.as_int32());
}

TEST_F(OperatorsTest, JoinPagesEmitsOnlyMatches) {
  ExprPtr pred = Eq(Col("k100"), RightCol("k100"));
  ASSERT_OK(pred->Bind(schema_, &schema_));
  VectorSink sink;
  ASSERT_OK(JoinPages(schema_, schema_, *pred, *a_pages_[0], *b_pages_[0],
                      &sink));
  Schema joined = schema_.Concat(schema_);
  ASSERT_OK_AND_ASSIGN(int left_k100, joined.ColumnIndex("k100"));
  ASSERT_OK_AND_ASSIGN(int right_k100, joined.ColumnIndex("k100_r"));
  for (const std::string& t : sink.tuples()) {
    TupleView view(&joined, Slice(t));
    ASSERT_OK_AND_ASSIGN(Value l, view.GetValue(left_k100));
    ASSERT_OK_AND_ASSIGN(Value r, view.GetValue(right_k100));
    EXPECT_EQ(l.as_int32(), r.as_int32());
  }
  // Count matches the brute-force expectation.
  size_t expected = 0;
  for (int i = 0; i < a_pages_[0]->num_tuples(); ++i) {
    TupleView l(&schema_, a_pages_[0]->tuple(i));
    for (int j = 0; j < b_pages_[0]->num_tuples(); ++j) {
      TupleView r(&schema_, b_pages_[0]->tuple(j));
      auto c = l.CompareColumn(6, r, 6);
      if (c.ok() && *c == 0) ++expected;
    }
  }
  EXPECT_EQ(sink.tuples().size(), expected);
}

/// Property: sorted-merge and nested-loops produce identical bags for
/// equi-joins, across join columns of different types and duplications.
class JoinEquivalenceTest : public OperatorsTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(JoinEquivalenceTest, SortMergeMatchesNestedLoops) {
  const int col = GetParam();
  // Nested loops over all page pairs.
  ExprPtr pred = Eq(Col(schema_.column(col).name),
                    RightCol(schema_.column(col).name));
  ASSERT_OK(pred->Bind(schema_, &schema_));
  VectorSink nested;
  for (const PagePtr& ap : a_pages_) {
    for (const PagePtr& bp : b_pages_) {
      ASSERT_OK(JoinPages(schema_, schema_, *pred, *ap, *bp, &nested));
    }
  }
  VectorSink merged;
  ASSERT_OK(SortMergeJoin(schema_, a_pages_, col, schema_, b_pages_, col,
                          &merged));
  std::vector<std::string> n = nested.tuples(), m = merged.tuples();
  std::sort(n.begin(), n.end());
  std::sort(m.begin(), m.end());
  EXPECT_EQ(n.size(), m.size());
  EXPECT_EQ(n, m);
}

INSTANTIATE_TEST_SUITE_P(JoinColumns, JoinEquivalenceTest,
                         ::testing::Values(2, 4, 6, 7),  // k2,k10,k100,k1000.
                         [](const auto& info) {
                           return "col" + std::to_string(info.param);
                         });

/// A page of \p n tuples of \p schema. Integer columns draw from
/// [-range, range), so keys repeat and go negative; INT64 values are spread
/// across the high bytes too.
PagePtr KeyedPage(const Schema& schema, Random* rng, int n, int64_t range) {
  auto page = Page::Create(0, schema.tuple_width(),
                           schema.tuple_width() * std::max(n, 1));
  EXPECT_TRUE(page.ok()) << page.status();
  for (int i = 0; i < n; ++i) {
    std::vector<Value> values;
    for (const Column& col : schema.columns()) {
      const int64_t v = rng->UniformInRange(-range, range - 1);
      switch (col.type) {
        case ColumnType::kInt32:
          values.push_back(Value::Int32(static_cast<int32_t>(v)));
          break;
        case ColumnType::kInt64:
          values.push_back(Value::Int64(v * 0x100000001LL));
          break;
        case ColumnType::kDouble:
          values.push_back(Value::Double(rng->NextDouble()));
          break;
        case ColumnType::kChar:
          values.push_back(Value::Char(std::string(
              static_cast<size_t>(rng->Uniform(
                  static_cast<uint64_t>(col.width) + 1)),
              static_cast<char>('a' + rng->Uniform(3)))));
          break;
      }
    }
    auto tuple = EncodeTuple(schema, values);
    EXPECT_TRUE(tuple.ok()) << tuple.status();
    EXPECT_OK(page->Append(Slice(*tuple)));
  }
  return SealPage(std::move(*page));
}

/// On the same pages, the hash join (build, hash, probe), the compiled
/// nested loops and the interpreted nested loops must emit the same bytes
/// in both emission orders, for INT32 and INT64 keys with duplicates,
/// negative values, empty pages and residual conjuncts; inner ++ outer is
/// outer ++ inner with its two parts traded.
TEST(HashJoinTest, HashAndNestedLoopsAgreeInBothOrders) {
  const Schema outer = Schema::CreateOrDie(
      {Column::Char("tag", 5), Column::Int32("a"), Column::Int64("b"),
       Column::Double("x")});
  const Schema inner = Schema::CreateOrDie(
      {Column::Int64("b"), Column::Int32("c"), Column::Int32("a"),
       Column::Char("pad", 3)});
  const size_t outer_width = static_cast<size_t>(outer.tuple_width());
  Random rng(91);
  uint64_t collisions = 0, matches = 0;
  int empty_pages = 0, residuals = 0;
  for (int round = 0; round < 400; ++round) {
    const bool wide = round % 2 == 1;
    const int64_t range = 1 + static_cast<int64_t>(rng.Uniform(40));
    auto size = [&rng]() {
      return rng.Uniform(6) == 0 ? 0 : static_cast<int>(rng.Uniform(70));
    };
    const PagePtr o = KeyedPage(outer, &rng, size(), range);
    const PagePtr i = KeyedPage(inner, &rng, size(), range);
    if (o->empty() || i->empty()) ++empty_pages;
    ExprPtr pred = wide ? Eq(Col("b"), RightCol("b"))
                        : Eq(RightCol("a"), Col("a"));
    switch (rng.Uniform(3)) {
      case 0:
        pred = And(pred, Le(RightCol("c"), Col("a")));
        ++residuals;
        break;
      case 1:
        pred = And(Lt(Col("x"), Lit(0.5)), pred);
        ++residuals;
        break;
      default:
        break;
    }
    ASSERT_OK(pred->Bind(outer, &inner));
    ASSERT_OK_AND_ASSIGN(CompiledJoinPredicate compiled,
                         CompiledJoinPredicate::Compile(*pred, outer, inner));
    ASSERT_EQ(compiled.keys().size(), 1u);
    SCOPED_TRACE(pred->ToString());

    std::vector<std::string> outer_first;
    for (JoinEmit emit : {JoinEmit::kOuterInner, JoinEmit::kInnerOuter}) {
      VectorSink hashed, compiled_nested, interpreted;
      KernelStats stats;
      JoinScratch scratch;
      ASSERT_OK(JoinPages(compiled, *o, *i, &scratch, &hashed, &stats, emit));
      EXPECT_EQ(stats.hash_joins.load(), 1u);
      ASSERT_OK(JoinPages(compiled, *o, *i, /*scratch=*/nullptr,
                          &compiled_nested, &stats, emit));
      EXPECT_EQ(stats.nested_joins.load(), 1u);
      ASSERT_OK(JoinPages(outer, inner, *pred, *o, *i, &interpreted, emit));
      EXPECT_EQ(hashed.tuples(), interpreted.tuples());
      EXPECT_EQ(compiled_nested.tuples(), interpreted.tuples());
      if (emit == JoinEmit::kOuterInner) {
        outer_first = hashed.tuples();
        collisions += stats.hash_build_collisions.load();
        continue;
      }
      ASSERT_EQ(hashed.tuples().size(), outer_first.size());
      for (size_t t = 0; t < outer_first.size(); ++t) {
        const std::string& ab = outer_first[t];
        EXPECT_EQ(hashed.tuples()[t],
                  ab.substr(outer_width) + ab.substr(0, outer_width));
      }
      matches += outer_first.size();
    }
  }
  EXPECT_GT(collisions, 100u);
  EXPECT_GT(matches, 1000u);
  EXPECT_GT(empty_pages, 20);
  EXPECT_GT(residuals, 100);
}

TEST_F(OperatorsTest, SortMergeEmitsEitherOrder) {
  const int col = 6;  // k100
  VectorSink outer_inner, inner_outer;
  ASSERT_OK(SortMergeJoin(schema_, a_pages_, col, schema_, b_pages_, col,
                          &outer_inner));
  ASSERT_OK(SortMergeJoin(schema_, a_pages_, col, schema_, b_pages_, col,
                          &inner_outer, JoinEmit::kInnerOuter));
  const size_t width = static_cast<size_t>(schema_.tuple_width());
  ASSERT_EQ(outer_inner.tuples().size(), inner_outer.tuples().size());
  ASSERT_FALSE(outer_inner.tuples().empty());
  for (size_t t = 0; t < outer_inner.tuples().size(); ++t) {
    const std::string& ab = outer_inner.tuples()[t];
    EXPECT_EQ(inner_outer.tuples()[t], ab.substr(width) + ab.substr(0, width));
  }
}

TEST_F(OperatorsTest, SortMergeRejectsTypeMismatch) {
  VectorSink sink;
  // Column 8 is DOUBLE, column 0 is INT32.
  EXPECT_TRUE(SortMergeJoin(schema_, a_pages_, 0, schema_, b_pages_, 8, &sink)
                  .IsInvalidArgument());
  EXPECT_TRUE(SortMergeJoin(schema_, a_pages_, -1, schema_, b_pages_, 0, &sink)
                  .IsOutOfRange());
}

TEST_F(OperatorsTest, DuplicateEliminatorBasics) {
  DuplicateEliminator d;
  EXPECT_TRUE(d.Insert(Slice("aa")));
  EXPECT_FALSE(d.Insert(Slice("aa")));
  EXPECT_TRUE(d.Insert(Slice("ab")));
  EXPECT_TRUE(d.Contains(Slice("aa")));
  EXPECT_FALSE(d.Contains(Slice("zz")));
  EXPECT_EQ(d.size(), 2u);
  d.Clear();
  EXPECT_EQ(d.size(), 0u);
}

TEST_F(OperatorsTest, DedupPartitionIsStable) {
  for (int parts : {1, 2, 16}) {
    const int p1 = DedupPartition(Slice("hello"), parts);
    const int p2 = DedupPartition(Slice("hello"), parts);
    EXPECT_EQ(p1, p2);
    EXPECT_GE(p1, 0);
    EXPECT_LT(p1, parts);
  }
}

TEST_F(OperatorsTest, UnionBagVsSet) {
  VectorSink bag;
  UnionOp bag_op(/*bag_semantics=*/true);
  ASSERT_OK(bag_op.Consume(*a_pages_[0], &bag));
  ASSERT_OK(bag_op.Consume(*a_pages_[0], &bag));
  EXPECT_EQ(bag.tuples().size(),
            2 * static_cast<size_t>(a_pages_[0]->num_tuples()));

  VectorSink set;
  UnionOp set_op(/*bag_semantics=*/false);
  ASSERT_OK(set_op.Consume(*a_pages_[0], &set));
  ASSERT_OK(set_op.Consume(*a_pages_[0], &set));
  EXPECT_EQ(set.tuples().size(),
            static_cast<size_t>(a_pages_[0]->num_tuples()));
}

TEST_F(OperatorsTest, DifferenceRemovesRightTuples) {
  DifferenceOp op;
  op.ConsumeRight(*a_pages_[0]);
  VectorSink sink;
  ASSERT_OK(op.ConsumeLeft(*a_pages_[0], &sink));
  EXPECT_TRUE(sink.tuples().empty());  // A \ A = empty.
  VectorSink sink2;
  ASSERT_OK(op.ConsumeLeft(*a_pages_[1], &sink2));
  EXPECT_EQ(sink2.tuples().size(),
            static_cast<size_t>(a_pages_[1]->num_tuples()));
}

TEST_F(OperatorsTest, AggregatorComputesAllFunctions) {
  std::vector<AggregateSpec> specs;
  specs.push_back({AggregateSpec::Func::kCount, "", "cnt"});
  specs.push_back({AggregateSpec::Func::kSum, "k1000", "sum"});
  specs.push_back({AggregateSpec::Func::kMin, "k1000", "mn"});
  specs.push_back({AggregateSpec::Func::kMax, "k1000", "mx"});
  specs.push_back({AggregateSpec::Func::kAvg, "k1000", "avg"});
  Schema out = Schema::CreateOrDie(
      {Column::Int64("cnt"), Column::Int64("sum"), Column::Int32("mn"),
       Column::Int32("mx"), Column::Double("avg")});
  ASSERT_OK_AND_ASSIGN(Aggregator agg,
                       Aggregator::Create(schema_, out, {}, specs));
  int64_t expect_cnt = 0, expect_sum = 0;
  int32_t expect_min = INT32_MAX, expect_max = INT32_MIN;
  for (const PagePtr& page : a_pages_) {
    ASSERT_OK(agg.Consume(*page));
    for (int i = 0; i < page->num_tuples(); ++i) {
      TupleView view(&schema_, page->tuple(i));
      ASSERT_OK_AND_ASSIGN(Value v, view.GetValue(7));
      ++expect_cnt;
      expect_sum += v.as_int32();
      expect_min = std::min(expect_min, v.as_int32());
      expect_max = std::max(expect_max, v.as_int32());
    }
  }
  EXPECT_EQ(agg.num_groups(), 1u);
  VectorSink sink;
  ASSERT_OK(agg.Finish(&sink));
  ASSERT_EQ(sink.tuples().size(), 1u);
  TupleView row(&out, Slice(sink.tuples()[0]));
  ASSERT_OK_AND_ASSIGN(Value cnt, row.GetValue(0));
  ASSERT_OK_AND_ASSIGN(Value sum, row.GetValue(1));
  ASSERT_OK_AND_ASSIGN(Value mn, row.GetValue(2));
  ASSERT_OK_AND_ASSIGN(Value mx, row.GetValue(3));
  ASSERT_OK_AND_ASSIGN(Value avg, row.GetValue(4));
  EXPECT_EQ(cnt.as_int64(), expect_cnt);
  EXPECT_EQ(sum.as_int64(), expect_sum);
  EXPECT_EQ(mn.as_int32(), expect_min);
  EXPECT_EQ(mx.as_int32(), expect_max);
  EXPECT_NEAR(avg.as_double(),
              static_cast<double>(expect_sum) / static_cast<double>(expect_cnt),
              1e-9);
  // Finish resets the aggregator.
  EXPECT_EQ(agg.num_groups(), 0u);
}

TEST_F(OperatorsTest, AggregatorGroupsDeterministically) {
  std::vector<AggregateSpec> specs;
  specs.push_back({AggregateSpec::Func::kCount, "", "cnt"});
  Schema out =
      Schema::CreateOrDie({Column::Int32("k10"), Column::Int64("cnt")});
  ASSERT_OK_AND_ASSIGN(Aggregator agg,
                       Aggregator::Create(schema_, out, {"k10"}, specs));
  for (const PagePtr& page : a_pages_) ASSERT_OK(agg.Consume(*page));
  EXPECT_EQ(agg.num_groups(), 10u);
  VectorSink sink;
  ASSERT_OK(agg.Finish(&sink));
  // Counts sum to the relation size.
  int64_t total = 0;
  for (const std::string& t : sink.tuples()) {
    TupleView row(&out, Slice(t));
    ASSERT_OK_AND_ASSIGN(Value cnt, row.GetValue(1));
    total += cnt.as_int64();
  }
  EXPECT_EQ(total, 300);
}

TEST_F(OperatorsTest, CopyPagePreservesEverything) {
  VectorSink sink;
  ASSERT_OK(CopyPage(*b_pages_[0], &sink));
  ASSERT_EQ(sink.tuples().size(),
            static_cast<size_t>(b_pages_[0]->num_tuples()));
  EXPECT_EQ(Slice(sink.tuples()[0]), b_pages_[0]->tuple(0));
}

// ---------------------------------------------------------------------------
// Exact SUM(double): ExactSum against a big-integer oracle
// ---------------------------------------------------------------------------

/// The exact sum of \p xs, rounded once: a two's-complement big integer in
/// units of 2^-1074 (the smallest subnormal), written as a hex float and
/// parsed by strtod, which rounds correctly (ties to even). Shares no code
/// with ExactSum: values are split with frexp, not by their bits.
double OracleSum(const std::vector<double>& xs) {
  bool nan = false, pos_inf = false, neg_inf = false;
  std::vector<uint32_t> n(72, 0);  // 2304 bits, two's complement.
  for (double x : xs) {
    if (std::isnan(x)) {
      nan = true;
      continue;
    }
    if (std::isinf(x)) {
      (x > 0 ? pos_inf : neg_inf) = true;
      continue;
    }
    if (x == 0) continue;
    int exp = 0;
    const double frac = std::frexp(std::fabs(x), &exp);  // [0.5, 1).
    uint64_t mant = static_cast<uint64_t>(std::ldexp(frac, 53));
    int shift = exp - 53 + 1074;  // |x| = mant * 2^shift units.
    for (; shift < 0; ++shift) mant >>= 1;  // Subnormals: zero bits only.
    std::vector<uint32_t> v(n.size(), 0);
    const int word = shift / 32, bit = shift % 32;
    for (int k = 0; k < 3; ++k) {
      const int sh = 32 * k - bit;  // Bits of mant landing in word+k.
      const uint64_t part = sh >= 64 ? 0 : sh >= 0 ? mant >> sh : mant << -sh;
      v[static_cast<size_t>(word + k)] = static_cast<uint32_t>(part);
    }
    if (x < 0) {  // v = -v.
      uint64_t carry = 1;
      for (uint32_t& w : v) {
        carry += static_cast<uint32_t>(~w);
        w = static_cast<uint32_t>(carry);
        carry >>= 32;
      }
    }
    uint64_t carry = 0;
    for (size_t i = 0; i < n.size(); ++i) {
      carry += static_cast<uint64_t>(n[i]) + v[i];
      n[i] = static_cast<uint32_t>(carry);
      carry >>= 32;
    }
  }
  if (nan || (pos_inf && neg_inf)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (pos_inf) return std::numeric_limits<double>::infinity();
  if (neg_inf) return -std::numeric_limits<double>::infinity();
  const bool negative = (n.back() >> 31) != 0;
  if (negative) {
    uint64_t carry = 1;
    for (uint32_t& w : n) {
      carry += static_cast<uint32_t>(~w);
      w = static_cast<uint32_t>(carry);
      carry >>= 32;
    }
  }
  std::string hex = "0x0";
  bool leading = true;
  for (size_t i = n.size(); i-- > 0;) {
    if (leading && n[i] == 0) continue;
    char buf[16];
    std::snprintf(buf, sizeof(buf), leading ? "%" PRIx32 : "%08" PRIx32, n[i]);
    hex += buf;
    leading = false;
  }
  hex += "p-1074";
  const double magnitude = std::strtod(hex.c_str(), nullptr);
  return negative ? -magnitude : magnitude;
}

double ExactSumOf(const std::vector<double>& xs) {
  ExactSum sum;
  for (double x : xs) sum.Add(x);
  return sum.Round();
}

/// Equal bit patterns, except that every NaN matches every NaN.
void ExpectSameDouble(double want, double got, const std::string& what) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << what << ": got " << got;
    return;
  }
  uint64_t a, b;
  std::memcpy(&a, &want, 8);
  std::memcpy(&b, &got, 8);
  EXPECT_EQ(a, b) << what << ": want " << want << " (" << std::hexfloat
                  << want << "), got " << got << " (" << got << ")"
                  << std::defaultfloat;
}

/// A double with a uniformly random exponent (subnormals included) and
/// mantissa; finite, never -0.0.
double RandomWideDouble(Random* rng, int max_biased_exp = 2046) {
  const uint64_t exp = rng->Uniform(static_cast<uint64_t>(max_biased_exp) + 1);
  const uint64_t bits = (rng->Next() & 0x8000000000000000ULL) | (exp << 52) |
                        (rng->Next() & ((uint64_t{1} << 52) - 1));
  double d;
  std::memcpy(&d, &bits, 8);
  return d == 0 ? 0.0 : d;
}

TEST(ExactSumTest, EdgeCasesMatchBigIntegerOracle) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kMax = std::numeric_limits<double>::max();
  const double kMinNormal = std::numeric_limits<double>::min();
  const double kTiny = std::numeric_limits<double>::denorm_min();
  const std::vector<std::vector<double>> cases = {
      {},
      {1e308, 1, -1e308},             // Naively 0; exactly 1.
      {1, 1e100, 1, -1e100},          // Naively 0; exactly 2.
      {0.1, 0.2, 0.3, -0.6},          // Cancellation to the exact residue.
      {3.5, -1.25, 1.25, -3.5},       // Cancellation to zero.
      {-0.0, -0.0},                   // An exact zero is +0.0.
      {kTiny, kTiny, kTiny},          // Subnormal sum.
      {kMinNormal, -kTiny},           // Normal minus subnormal.
      {kMinNormal / 2, kMinNormal / 2},  // Two subnormals make a normal.
      {-kTiny},
      {kMax, kMax},                   // Overflows to +inf.
      {-kMax, -kMax},                 // Overflows to -inf.
      {kMax, kMax, -kMax},            // Naively inf; exactly kMax.
      {1, 0x1p-53},                   // Tie, rounds to even (1).
      {1 + 0x1p-52, 0x1p-53},         // Tie, rounds to even (up).
      {1, 0x1p-53, 0x1p-200},         // Just above the tie: up.
      {1, -0x1p-54, -0x1p-300},       // Just below 1.
      {kInf, 1},
      {-kInf, 1, kMax, kMax},         // An infinite input wins.
      {kInf, -kInf},                  // NaN.
      {kInf, kNaN},
      {-kInf, kNaN, 1},
      {kNaN, 2},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    ExpectSameDouble(OracleSum(cases[i]), ExactSumOf(cases[i]),
                     "case " + std::to_string(i));
  }
  // A few pinned by hand, so the oracle is checked too.
  EXPECT_EQ(ExactSumOf({1e308, 1, -1e308}), 1.0);
  EXPECT_EQ(ExactSumOf({kMax, kMax}), kInf);
  EXPECT_EQ(ExactSumOf({1 + 0x1p-52, 0x1p-53}), 1 + 0x1p-51);
  EXPECT_EQ(ExactSumOf({kTiny, kTiny, kTiny}), 3 * kTiny);
  EXPECT_FALSE(std::signbit(ExactSumOf({-0.0, -0.0})));
  EXPECT_TRUE(std::isnan(ExactSumOf({kInf, -kInf})));
}

TEST(ExactSumTest, RandomSumsMatchOracleInAnyOrder) {
  Random rng(20261017);
  for (int trial = 0; trial < 150; ++trial) {
    // Some trials mix every magnitude, others stay in a narrow band (where
    // cancellation and carries between adjacent chunks are dense). Up to
    // 3000 values, so the periodic carry runs a few times.
    const int n = static_cast<int>(rng.Uniform(3000));
    const int band_lo = static_cast<int>(rng.Uniform(2000));
    const bool narrow = rng.Bernoulli(0.5);
    std::vector<double> xs;
    for (int i = 0; i < n; ++i) {
      if (narrow) {
        const uint64_t exp = static_cast<uint64_t>(band_lo) + rng.Uniform(40);
        const uint64_t bits = (rng.Next() & 0x8000000000000000ULL) |
                              (exp << 52) |
                              (rng.Next() & ((uint64_t{1} << 52) - 1));
        double d;
        std::memcpy(&d, &bits, 8);
        xs.push_back(d);
      } else {
        xs.push_back(RandomWideDouble(&rng));
      }
    }
    const double want = OracleSum(xs);
    ExpectSameDouble(want, ExactSumOf(xs), "trial " + std::to_string(trial));
    for (size_t i = xs.size(); i > 1; --i) {
      std::swap(xs[i - 1], xs[rng.Uniform(i)]);
    }
    ExpectSameDouble(want, ExactSumOf(xs),
                     "shuffled trial " + std::to_string(trial));
  }
}

// ---------------------------------------------------------------------------
// CompiledAggregate against the interpreted Aggregator
// ---------------------------------------------------------------------------

/// An aggregate node's shape, as the analyzer would resolve it.
struct AggShape {
  Schema input;
  Schema output;
  std::vector<std::string> group_by;
  std::vector<AggregateSpec> specs;
};

Schema AggOutputSchema(const Schema& input,
                       const std::vector<std::string>& group_by,
                       const std::vector<AggregateSpec>& specs) {
  std::vector<Column> cols;
  for (const std::string& g : group_by) {
    cols.push_back(input.column(input.ColumnIndex(g).value()));
  }
  for (const AggregateSpec& spec : specs) {
    Column col = Column::Int64(spec.output_name);
    if (spec.func != AggregateSpec::Func::kCount) {
      const Column& src = input.column(input.ColumnIndex(spec.column).value());
      switch (spec.func) {
        case AggregateSpec::Func::kSum:
          if (src.type == ColumnType::kDouble) {
            col = Column::Double(spec.output_name);
          }
          break;
        case AggregateSpec::Func::kAvg:
          col = Column::Double(spec.output_name);
          break;
        default:  // MIN/MAX keep the column's type.
          col = src;
          col.name = spec.output_name;
          break;
      }
    }
    cols.push_back(col);
  }
  return Schema::CreateOrDie(cols);
}

/// Runs \p kernel (an Aggregator or a CompiledAggregate) over \p pages in
/// order and returns the Finish() output.
template <typename Kernel>
std::vector<std::string> RunAggregate(Kernel* kernel,
                                      const std::vector<PagePtr>& pages) {
  for (const PagePtr& page : pages) EXPECT_OK(kernel->Consume(*page));
  VectorSink sink;
  EXPECT_OK(kernel->Finish(&sink));
  EXPECT_EQ(kernel->num_groups(), 0u);
  return sink.tuples();
}

/// Cuts \p tuples into pages of random sizes.
std::vector<PagePtr> RandomSplit(const std::vector<std::string>& tuples,
                                 int width, Random* rng) {
  std::vector<PagePtr> pages;
  size_t i = 0;
  while (i < tuples.size()) {
    const size_t n = std::min(tuples.size() - i, 1 + rng->Uniform(40));
    auto page = Page::Create(0, width, width * static_cast<int>(n));
    EXPECT_TRUE(page.ok());
    for (size_t k = 0; k < n; ++k) {
      EXPECT_OK(page->Append(Slice(tuples[i + k])));
    }
    pages.push_back(SealPage(std::move(*page)));
    i += n;
  }
  return pages;
}

/// A group-column value: small domains so groups collide, DOUBLE keys with
/// -0.0 beside 0.0 and NaNs of both signs, CHAR keys blank-padded.
Value RandomKeyValue(const Column& col, Random* rng) {
  switch (col.type) {
    case ColumnType::kInt32:
      return Value::Int32(static_cast<int32_t>(rng->Uniform(5)) - 2);
    case ColumnType::kInt64:
      return Value::Int64(static_cast<int64_t>(rng->Uniform(5)) - 2);
    case ColumnType::kDouble: {
      const double kVals[] = {0.0, -0.0, std::nan(""), -std::nan(""), 1.5,
                              -std::numeric_limits<double>::infinity()};
      return Value::Double(kVals[rng->Uniform(6)]);
    }
    case ColumnType::kChar: {
      const size_t len = rng->Uniform(static_cast<uint64_t>(col.width) + 1);
      std::string s;
      for (size_t i = 0; i < len; ++i) s.push_back("ab "[rng->Uniform(3)]);
      return Value::Char(s);
    }
  }
  return Value::Int32(0);
}

/// An aggregated value: the full ranges, so integer SUMs overflow and wrap
/// and double SUMs span every exponent, plus ±0.0 and NaNs of both signs;
/// CHARs with trailing and embedded blanks, empty strings, and bytes below
/// the blank and above 0x7f, which MIN/MAX compare right-trimmed and
/// unsigned.
Value RandomAggValue(const Column& col, Random* rng) {
  switch (col.type) {
    case ColumnType::kInt32:
      return Value::Int32(static_cast<int32_t>(
          rng->Bernoulli(0.5) ? rng->Uniform(100) : rng->Next()));
    case ColumnType::kInt64:
      return Value::Int64(rng->Bernoulli(0.5)
                              ? static_cast<int64_t>(rng->Uniform(100)) - 50
                              : static_cast<int64_t>(rng->Next()));
    case ColumnType::kDouble:
      switch (rng->Uniform(10)) {
        case 0:
          return Value::Double(rng->Bernoulli(0.5)
                                   ? std::numeric_limits<double>::infinity()
                                   : 0.0);
        case 8:
          return Value::Double(rng->Bernoulli(0.5) ? -0.0 : 0.0);
        case 9: {
          const double nan = std::numeric_limits<double>::quiet_NaN();
          return Value::Double(rng->Bernoulli(0.5) ? -nan : nan);
        }
        case 1:
          return Value::Double(RandomWideDouble(rng, 0));  // Subnormal.
        case 2:
        case 3:
          return Value::Double(rng->NextDouble());
        default:
          return Value::Double(RandomWideDouble(rng));
      }
    case ColumnType::kChar: {
      const size_t len = rng->Uniform(static_cast<uint64_t>(col.width) + 1);
      std::string s;
      for (size_t i = 0; i < len; ++i) {
        s.push_back("ab \x01\xe9"[rng->Uniform(5)]);
      }
      return Value::Char(s);
    }
  }
  return Value::Int32(0);
}

/// A random schema of 0-3 group columns and 1-3 value columns of any type,
/// interleaved (so keys are sometimes contiguous, sometimes not), with
/// COUNT, MIN and MAX over random value columns and SUM and AVG over
/// random numeric ones.
AggShape RandomAggShape(Random* rng, std::vector<bool>* is_key) {
  const int keys = static_cast<int>(rng->Uniform(4));
  const int values = 1 + static_cast<int>(rng->Uniform(3));
  std::vector<bool> roles(static_cast<size_t>(keys), true);
  roles.resize(static_cast<size_t>(keys + values), false);
  for (size_t i = roles.size(); i > 1; --i) {
    std::vector<bool>::swap(roles[i - 1], roles[rng->Uniform(i)]);
  }
  std::vector<Column> cols;
  std::vector<std::string> key_names, value_names, numeric_names;
  for (size_t i = 0; i < roles.size(); ++i) {
    std::string name = "c";
    name += std::to_string(i);
    const uint64_t type = rng->Uniform(4);
    if (!roles[i] && type < 3) numeric_names.push_back(name);
    switch (type) {
      case 0:
        cols.push_back(Column::Int32(name));
        break;
      case 1:
        cols.push_back(Column::Int64(name));
        break;
      case 2:
        cols.push_back(Column::Double(name));
        break;
      default:
        cols.push_back(
            Column::Char(name, 1 + static_cast<int>(rng->Uniform(5))));
        break;
    }
    (roles[i] ? key_names : value_names).push_back(name);
  }
  for (size_t i = key_names.size(); i > 1; --i) {
    std::swap(key_names[i - 1], key_names[rng->Uniform(i)]);
  }
  AggShape shape{Schema::CreateOrDie(cols), Schema(), key_names, {}};
  const AggregateSpec::Func kFuncs[] = {
      AggregateSpec::Func::kCount, AggregateSpec::Func::kSum,
      AggregateSpec::Func::kAvg, AggregateSpec::Func::kMin,
      AggregateSpec::Func::kMax};
  for (AggregateSpec::Func f : kFuncs) {
    const bool numeric =
        f == AggregateSpec::Func::kSum || f == AggregateSpec::Func::kAvg;
    if (numeric && numeric_names.empty()) continue;
    const std::vector<std::string>& names =
        numeric ? numeric_names : value_names;
    const int copies = 1 + static_cast<int>(rng->Uniform(2));
    for (int c = 0; c < copies; ++c) {
      AggregateSpec spec;
      spec.func = f;
      if (f != AggregateSpec::Func::kCount) {
        spec.column = names[rng->Uniform(names.size())];
      }
      spec.output_name = "o" + std::to_string(shape.specs.size());
      shape.specs.push_back(spec);
    }
  }
  shape.output = AggOutputSchema(shape.input, shape.group_by, shape.specs);
  *is_key = roles;
  return shape;
}

TEST(CompiledAggregateTest, FuzzMatchesInterpretedInAnyPageOrder) {
  Random rng(1980);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<bool> is_key;
    AggShape shape = RandomAggShape(&rng, &is_key);
    const int width = shape.input.tuple_width();
    std::vector<std::string> tuples;
    const uint64_t n = rng.Uniform(500);
    for (uint64_t t = 0; t < n; ++t) {
      std::vector<Value> row;
      for (int c = 0; c < shape.input.num_columns(); ++c) {
        const Column& col = shape.input.column(c);
        row.push_back(is_key[static_cast<size_t>(c)]
                          ? RandomKeyValue(col, &rng)
                          : RandomAggValue(col, &rng));
      }
      ASSERT_OK_AND_ASSIGN(std::string tuple, EncodeTuple(shape.input, row));
      tuples.push_back(std::move(tuple));
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + ", " +
                 std::to_string(n) + " tuples, schema " +
                 shape.input.ToString());

    ASSERT_OK_AND_ASSIGN(
        Aggregator interpreted,
        Aggregator::Create(shape.input, shape.output, shape.group_by,
                           shape.specs));
    ASSERT_OK_AND_ASSIGN(
        CompiledAggregate compiled,
        CompiledAggregate::Compile(shape.input, shape.output, shape.group_by,
                                   shape.specs));
    const std::vector<PagePtr> pages = RandomSplit(tuples, width, &rng);
    const std::vector<std::string> want = RunAggregate(&interpreted, pages);
    ASSERT_EQ(RunAggregate(&compiled, pages), want);
    // Other cuts, pages in other orders; the kernels are reused after
    // Finish().
    for (int round = 0; round < 3; ++round) {
      std::vector<PagePtr> shuffled = RandomSplit(tuples, width, &rng);
      for (size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
      }
      ASSERT_EQ(RunAggregate(&compiled, shuffled), want) << "round " << round;
      ASSERT_EQ(RunAggregate(&interpreted, shuffled), want)
          << "round " << round;
    }
  }
}

/// Runs SUM(v) over one DOUBLE column holding \p xs, on both kernels.
void ExpectBothSumTo(const std::vector<double>& xs, double want,
                     const std::string& what) {
  const Schema input = Schema::CreateOrDie({Column::Double("v")});
  const std::vector<AggregateSpec> specs = {
      {AggregateSpec::Func::kSum, "v", "s"}};
  const Schema output = AggOutputSchema(input, {}, specs);
  std::vector<std::string> tuples;
  for (double x : xs) {
    tuples.push_back(EncodeTuple(input, {Value::Double(x)}).value());
  }
  Random rng(7);
  const std::vector<PagePtr> pages = RandomSplit(tuples, 8, &rng);
  ASSERT_OK_AND_ASSIGN(Aggregator interpreted,
                       Aggregator::Create(input, output, {}, specs));
  ASSERT_OK_AND_ASSIGN(CompiledAggregate compiled,
                       CompiledAggregate::Compile(input, output, {}, specs));
  auto check = [&](auto* kernel) {
    const std::vector<std::string> rows = RunAggregate(kernel, pages);
    ASSERT_EQ(rows.size(), 1u);
    double got;
    std::memcpy(&got, rows[0].data(), 8);
    ExpectSameDouble(want, got, what);
  };
  check(&interpreted);
  check(&compiled);
}

TEST(CompiledAggregateTest, ExactSumEdgeCasesOnBothPaths) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double kTiny = std::numeric_limits<double>::denorm_min();
  const std::vector<std::vector<double>> cases = {
      {1e308, 1, -1e308}, {kTiny, 3 * kTiny, -kTiny}, {kInf, std::nan("")},
      {-kInf, 5},         {2.5, -2.5, 1e-300, -1e-300},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    ExpectBothSumTo(cases[i], OracleSum(cases[i]), "case " + std::to_string(i));
  }
}

TEST(CompiledAggregateTest, IntegerSumWrapsOnOverflow) {
  const Schema input =
      Schema::CreateOrDie({Column::Int32("k"), Column::Int64("v")});
  const std::vector<AggregateSpec> specs = {
      {AggregateSpec::Func::kSum, "v", "s"}};
  const Schema output = AggOutputSchema(input, {"k"}, specs);
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  // Group 0 overflows upwards, group 1 downwards, group 2 back and forth.
  const std::vector<std::pair<int32_t, int64_t>> rows = {
      {0, kMax}, {0, 1}, {1, kMin}, {1, -2}, {2, kMax}, {2, kMax}, {2, 2},
  };
  std::vector<std::string> tuples;
  for (const auto& [k, v] : rows) {
    tuples.push_back(
        EncodeTuple(input, {Value::Int32(k), Value::Int64(v)}).value());
  }
  Random rng(3);
  const std::vector<PagePtr> pages =
      RandomSplit(tuples, input.tuple_width(), &rng);
  ASSERT_OK_AND_ASSIGN(Aggregator interpreted,
                       Aggregator::Create(input, output, {"k"}, specs));
  ASSERT_OK_AND_ASSIGN(CompiledAggregate compiled,
                       CompiledAggregate::Compile(input, output, {"k"}, specs));
  const std::vector<int64_t> want = {kMin, kMax - 1, 0};
  auto check = [&](auto* kernel) {
    const std::vector<std::string> got = RunAggregate(kernel, pages);
    ASSERT_EQ(got.size(), 3u);
    for (size_t g = 0; g < got.size(); ++g) {
      TupleView row(&output, Slice(got[g]));
      ASSERT_OK_AND_ASSIGN(Value k, row.GetValue(0));
      ASSERT_OK_AND_ASSIGN(Value sum, row.GetValue(1));
      EXPECT_EQ(k.as_int32(), static_cast<int32_t>(g));
      EXPECT_EQ(sum.as_int64(), want[g]) << "group " << g;
    }
  };
  check(&interpreted);
  check(&compiled);
}

TEST(CompiledAggregateTest, CompilesCharMinMaxButNotForeignLayouts) {
  const Schema input = Schema::CreateOrDie(
      {Column::Char("s", 4), Column::Int32("k"), Column::Double("v")});
  const std::vector<AggregateSpec> chars = {
      {AggregateSpec::Func::kMin, "s", "lo"},
      {AggregateSpec::Func::kMax, "s", "hi"}};
  EXPECT_OK(CompiledAggregate::Compile(
                input, AggOutputSchema(input, {"k"}, chars), {"k"}, chars)
                .status());
  // Schemas the analyzer would not produce are an error.
  const std::vector<AggregateSpec> numeric = {
      {AggregateSpec::Func::kCount, "", "n"},
      {AggregateSpec::Func::kMin, "v", "lo"}};
  EXPECT_TRUE(CompiledAggregate::Compile(
                  input, AggOutputSchema(input, {"s"}, numeric), {"k"},
                  numeric)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace dfdb
