/// \file expr_compile_test.cc
/// \brief Differential tests for compiled predicate programs: a compiled
/// program must be byte-identical to the interpreted Expr oracle on every
/// tuple, page, and join it accepts — including CHAR trimming, NaN ordering,
/// and hash-join duplicate order.

#include "ra/expr_compile.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>
#include <gtest/gtest.h>

#include "common/random.h"
#include "operators/kernels.h"
#include "storage/page.h"
#include "storage/tuple.h"
#include "tests/test_util.h"

namespace dfdb {
namespace {

// ---------------------------------------------------------------------------
// Random schema / page / predicate generation
// ---------------------------------------------------------------------------

Schema RandomSchema(Random* rng) {
  const int n = 1 + static_cast<int>(rng->Uniform(5));
  std::vector<Column> cols;
  for (int i = 0; i < n; ++i) {
    // Two-step append (not `"c" + std::to_string(i)`): the rvalue
    // operator+ trips a gcc-12 -Werror=restrict false positive at -O2.
    std::string name = "c";
    name += std::to_string(i);
    switch (rng->Uniform(4)) {
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
        cols.push_back(Column::Char(name, 1 + static_cast<int>(rng->Uniform(7))));
        break;
    }
  }
  return Schema::CreateOrDie(cols);
}

/// Small value domains so random predicates hit both outcomes and join keys
/// collide; doubles occasionally NaN to pin down the interpreter's
/// "incomparable compares as equal" behavior.
Value RandomValue(const Column& col, Random* rng) {
  switch (col.type) {
    case ColumnType::kInt32:
      return Value::Int32(static_cast<int32_t>(rng->Uniform(10)) - 3);
    case ColumnType::kInt64:
      return Value::Int64(static_cast<int64_t>(rng->Uniform(10)) - 3);
    case ColumnType::kDouble: {
      static const double kVals[] = {0.0, 0.5, -1.25, 2.0, 3.5};
      if (rng->Uniform(16) == 0) return Value::Double(std::nan(""));
      return Value::Double(kVals[rng->Uniform(5)]);
    }
    case ColumnType::kChar: {
      const int len = static_cast<int>(rng->Uniform(static_cast<uint64_t>(col.width) + 1));
      std::string s;
      for (int i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('a' + rng->Uniform(3)));
      }
      return Value::Char(s);
    }
  }
  return Value::Int32(0);
}

PagePtr RandomPage(const Schema& schema, Random* rng, int n) {
  auto page = Page::Create(0, schema.tuple_width(), schema.tuple_width() * n);
  EXPECT_TRUE(page.ok());
  for (int i = 0; i < n; ++i) {
    std::vector<Value> values;
    for (const Column& col : schema.columns()) {
      values.push_back(RandomValue(col, rng));
    }
    auto tuple = EncodeTuple(schema, values);
    EXPECT_TRUE(tuple.ok()) << tuple.status();
    EXPECT_TRUE(page->Append(Slice(*tuple)).ok());
  }
  return SealPage(std::move(*page));
}

/// A numeric- or string-valued expression. Deliberately includes constructs
/// Compile() refuses (division, CHAR in arithmetic) so the fuzz also
/// exercises the refusal/fallback decision.
ExprPtr RandomScalar(const Schema& left, const Schema* right, Random* rng,
                     int depth) {
  switch (rng->Uniform(depth > 0 ? 5 : 4)) {
    case 0: {
      if (right != nullptr && rng->Uniform(2) == 0) {
        return RightCol(
            right->column(static_cast<int>(rng->Uniform(
                              static_cast<uint64_t>(right->num_columns())))).name);
      }
      return Col(left.column(static_cast<int>(rng->Uniform(
                                 static_cast<uint64_t>(left.num_columns())))).name);
    }
    case 1:
      return Lit(static_cast<int32_t>(rng->Uniform(10)) - 3);
    case 2: {
      static const double kVals[] = {0.0, 0.5, -1.25, 2.0, 3.5};
      return Lit(kVals[rng->Uniform(5)]);
    }
    case 3: {
      static const char* kStrs[] = {"a", "ab", "b", "abc", "ba"};
      return Lit(kStrs[rng->Uniform(5)]);
    }
    default: {
      ExprPtr l = RandomScalar(left, right, rng, depth - 1);
      ExprPtr r = RandomScalar(left, right, rng, depth - 1);
      switch (rng->Uniform(4)) {
        case 0: return Add(std::move(l), std::move(r));
        case 1: return Sub(std::move(l), std::move(r));
        case 2: return Mul(std::move(l), std::move(r));
        default: return Div(std::move(l), std::move(r));
      }
    }
  }
}

ExprPtr RandomCompare(const Schema& left, const Schema* right, Random* rng,
                      int depth) {
  ExprPtr l = RandomScalar(left, right, rng, depth);
  ExprPtr r = RandomScalar(left, right, rng, depth);
  switch (rng->Uniform(6)) {
    case 0: return Eq(std::move(l), std::move(r));
    case 1: return Ne(std::move(l), std::move(r));
    case 2: return Lt(std::move(l), std::move(r));
    case 3: return Le(std::move(l), std::move(r));
    case 4: return Gt(std::move(l), std::move(r));
    default: return Ge(std::move(l), std::move(r));
  }
}

ExprPtr RandomPred(const Schema& left, const Schema* right, Random* rng,
                   int depth) {
  switch (rng->Uniform(depth > 0 ? 4 : 1)) {
    case 0:
      return RandomCompare(left, right, rng, depth > 0 ? depth - 1 : 0);
    case 1:
      return And(RandomPred(left, right, rng, depth - 1),
                 RandomPred(left, right, rng, depth - 1));
    case 2:
      return Or(RandomPred(left, right, rng, depth - 1),
                RandomPred(left, right, rng, depth - 1));
    default:
      return Not(RandomPred(left, right, rng, depth - 1));
  }
}

// ---------------------------------------------------------------------------
// Differential fuzz: compiled == interpreted, byte for byte
// ---------------------------------------------------------------------------

TEST(ExprCompileFuzz, RestrictAndCountMatchInterpreter) {
  Random rng(7);
  int compiled_preds = 0;
  int refused_preds = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const Schema schema = RandomSchema(&rng);
    const PagePtr page = RandomPage(schema, &rng, 48);
    ExprPtr pred = RandomPred(schema, nullptr, &rng, 3);
    if (!pred->Bind(schema, nullptr).ok()) continue;
    auto compiled = CompiledPredicate::Compile(*pred, schema);
    if (!compiled.ok()) {
      // Refusal is a valid outcome (division, CHAR misuse, CHAR root...);
      // the engines fall back to the interpreter.
      ++refused_preds;
      continue;
    }
    ++compiled_preds;
    // Tuple level: the interpreter must succeed (every per-tuple error
    // construct is rejected at compile time) and agree exactly.
    for (int i = 0; i < page->num_tuples(); ++i) {
      TupleView view(&schema, page->tuple(i));
      auto want = pred->EvalBool(view, nullptr);
      ASSERT_TRUE(want.ok()) << want.status() << " pred=" << pred->ToString();
      EXPECT_EQ(compiled->Matches(page->tuple(i).data(), nullptr), *want)
          << "tuple " << i << " pred=" << pred->ToString();
    }
    // Page level: identical bytes in identical order, and counts agree.
    VectorSink interpreted, fast;
    ASSERT_OK(RestrictPage(schema, *pred, *page, &interpreted));
    ASSERT_OK(RestrictPage(*compiled, *page, &fast));
    EXPECT_EQ(interpreted.tuples(), fast.tuples());
    EXPECT_EQ(CountMatches(*compiled, *page), interpreted.tuples().size());
    ASSERT_OK_AND_ASSIGN(uint64_t auto_count,
                         CountMatches(schema, *pred, *page));
    EXPECT_EQ(auto_count, interpreted.tuples().size());
  }
  // The fuzz is only meaningful if both paths are exercised heavily.
  EXPECT_GT(compiled_preds, 100);
  EXPECT_GT(refused_preds, 20);
}

TEST(ExprCompileFuzz, JoinMatchesInterpreterIncludingOrder) {
  Random rng(11);
  // Two more outer pages per round come from their own generator, so the
  // rounds' schemas, pages and predicates stay those of `rng` alone.
  Random more_outers(12);
  // One scratch serves every probe of the test, as a worker's does.
  JoinScratch probe_scratch;
  int hash_joins = 0;
  int nested_joins = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const Schema outer = RandomSchema(&rng);
    const Schema inner = RandomSchema(&rng);
    const PagePtr outer_page = RandomPage(outer, &rng, 24);
    const PagePtr inner_page = RandomPage(inner, &rng, 24);

    // Bias toward hash-eligible predicates: an explicit same-type equality
    // conjunct, sometimes AND-ed with a random residual.
    ExprPtr pred;
    int oc = -1, ic = -1;
    for (int o = 0; o < outer.num_columns() && oc < 0; ++o) {
      for (int i = 0; i < inner.num_columns(); ++i) {
        if (outer.column(o).type == inner.column(i).type &&
            outer.column(o).type != ColumnType::kDouble) {
          oc = o;
          ic = i;
          break;
        }
      }
    }
    if (oc >= 0 && rng.Uniform(3) != 0) {
      pred = Eq(Col(outer.column(oc).name), RightCol(inner.column(ic).name));
      if (rng.Uniform(2) == 0) {
        pred = And(std::move(pred), RandomPred(outer, &inner, &rng, 2));
      }
    } else {
      pred = RandomPred(outer, &inner, &rng, 2);
    }
    if (!pred->Bind(outer, &inner).ok()) continue;
    auto compiled = CompiledJoinPredicate::Compile(*pred, outer, inner);
    if (!compiled.ok()) continue;

    VectorSink interpreted, fast;
    ASSERT_OK(
        JoinPages(outer, inner, *pred, *outer_page, *inner_page, &interpreted));
    JoinScratch scratch;
    KernelStats stats;
    ASSERT_OK(JoinPages(*compiled, *outer_page, *inner_page, &scratch, &fast,
                        &stats));
    // Byte-identical output in the exact nested-loops order, whichever path
    // the compiled kernel took.
    EXPECT_EQ(interpreted.tuples(), fast.tuples())
        << "pred=" << pred->ToString();
    if (compiled->hash_eligible()) {
      ++hash_joins;
      EXPECT_EQ(stats.hash_joins.load(), 1u);
    } else {
      ++nested_joins;
      EXPECT_EQ(stats.nested_joins.load(), 1u);
    }

    // The backends' path: the inner page's table is built once and probed
    // by three outer pages, each hashed once into the reused scratch.
    const bool hashed = compiled->hash_eligible();
    JoinTable table;
    if (hashed) BuildJoinTable(*compiled, *inner_page, &table);
    const PagePtr outers[3] = {outer_page,
                               RandomPage(outer, &more_outers, 24),
                               RandomPage(outer, &more_outers, 24)};
    KernelStats probe_stats;
    for (int o = 0; o < 3; ++o) {
      VectorSink nested, probed;
      ASSERT_OK(JoinPages(outer, inner, *pred, *outers[o], *inner_page,
                          &nested));
      HashOuterKeys(*compiled, *outers[o], &probe_scratch);
      ASSERT_OK(ProbeJoin(*compiled, *outers[o], probe_scratch, *inner_page,
                          hashed ? &table : nullptr, &probed, &probe_stats));
      EXPECT_EQ(nested.tuples(), probed.tuples())
          << "outer page " << o << " pred=" << pred->ToString();
    }
    EXPECT_EQ(probe_stats.hash_joins.load(), hashed ? 3u : 0u);
    EXPECT_EQ(probe_stats.nested_joins.load(), hashed ? 0u : 3u);
    // Build collisions count at every probe, as they did when each page
    // pair built its own table.
    EXPECT_EQ(probe_stats.hash_build_collisions.load(),
              hashed ? 3 * table.collisions : 0u);
  }
  EXPECT_GT(hash_joins, 50);
  EXPECT_GT(nested_joins, 10);
}

// ---------------------------------------------------------------------------
// Targeted semantics
// ---------------------------------------------------------------------------

Schema SmallSchema() {
  return Schema::CreateOrDie({Column::Int32("k"), Column::Double("v"),
                              Column::Char("s", 4)});
}

PagePtr SmallPage(const std::vector<std::tuple<int32_t, double, std::string>>&
                      rows) {
  Schema schema = SmallSchema();
  auto page = Page::Create(
      0, schema.tuple_width(),
      schema.tuple_width() * static_cast<int>(rows.size() ? rows.size() : 1));
  EXPECT_TRUE(page.ok());
  for (const auto& [k, v, s] : rows) {
    auto t = EncodeTuple(schema,
                         {Value::Int32(k), Value::Double(v), Value::Char(s)});
    EXPECT_TRUE(t.ok());
    EXPECT_TRUE(page->Append(Slice(*t)).ok());
  }
  return SealPage(std::move(*page));
}

TEST(ExprCompile, DetectsFastShapes) {
  Schema schema = SmallSchema();
  ExprPtr single = Lt(Col("k"), Lit(5));
  ASSERT_OK(single->Bind(schema, nullptr));
  ASSERT_OK_AND_ASSIGN(CompiledPredicate cs,
                       CompiledPredicate::Compile(*single, schema));
  EXPECT_EQ(cs.shape(), CompiledPredicate::Shape::kSingleCompare);

  // Literal-first compares are flipped into column-vs-constant form.
  ExprPtr flipped = Gt(Lit(5), Col("k"));  // 5 > k  <=>  k < 5.
  ASSERT_OK(flipped->Bind(schema, nullptr));
  ASSERT_OK_AND_ASSIGN(CompiledPredicate cf,
                       CompiledPredicate::Compile(*flipped, schema));
  EXPECT_EQ(cf.shape(), CompiledPredicate::Shape::kSingleCompare);

  ExprPtr conj = And(Ge(Col("k"), Lit(1)), Lt(Col("v"), Lit(2.0)));
  ASSERT_OK(conj->Bind(schema, nullptr));
  ASSERT_OK_AND_ASSIGN(CompiledPredicate cc,
                       CompiledPredicate::Compile(*conj, schema));
  EXPECT_EQ(cc.shape(), CompiledPredicate::Shape::kConjunction);
  EXPECT_EQ(cc.col_compares().size(), 2u);

  // Disjunctions run the generic program.
  ExprPtr disj = Or(Ge(Col("k"), Lit(1)), Lt(Col("v"), Lit(2.0)));
  ASSERT_OK(disj->Bind(schema, nullptr));
  ASSERT_OK_AND_ASSIGN(CompiledPredicate cd,
                       CompiledPredicate::Compile(*disj, schema));
  EXPECT_EQ(cd.shape(), CompiledPredicate::Shape::kGeneric);
  EXPECT_GT(cd.num_ops(), 0u);

  const PagePtr page = SmallPage(
      {{0, 0.0, "a"}, {1, 1.5, "b"}, {5, 2.5, "c"}, {7, -1.0, "d"}});
  for (const auto* e :
       {&single, &flipped, &conj, &disj}) {
    ASSERT_OK_AND_ASSIGN(CompiledPredicate c,
                         CompiledPredicate::Compile(**e, schema));
    for (int i = 0; i < page->num_tuples(); ++i) {
      TupleView view(&schema, page->tuple(i));
      ASSERT_OK_AND_ASSIGN(bool want, (*e)->EvalBool(view, nullptr));
      EXPECT_EQ(c.Matches(page->tuple(i).data(), nullptr), want);
    }
  }
}

TEST(ExprCompile, RefusesPerTupleErrorConstructs) {
  Schema schema = SmallSchema();
  // Division can fail per tuple (div by zero): never compiled.
  ExprPtr div = Gt(Div(Col("k"), Lit(2)), Lit(1));
  ASSERT_OK(div->Bind(schema, nullptr));
  EXPECT_FALSE(CompiledPredicate::Compile(*div, schema).ok());

  // CHAR against a number errors in Value::Compare: rejected.
  ExprPtr mixed = Eq(Col("s"), Lit(1));
  if (mixed->Bind(schema, nullptr).ok()) {
    EXPECT_FALSE(CompiledPredicate::Compile(*mixed, schema).ok());
  }

  // CHAR in arithmetic errors in AsNumeric: rejected.
  ExprPtr arith = Gt(Add(Col("s"), Lit(1)), Lit(0));
  if (arith->Bind(schema, nullptr).ok()) {
    EXPECT_FALSE(CompiledPredicate::Compile(*arith, schema).ok());
  }

  // A right-side reference without a right schema: rejected.
  ExprPtr right = Eq(Col("k"), RightCol("k"));
  EXPECT_FALSE(right->Bind(schema, nullptr).ok() &&
               CompiledPredicate::Compile(*right, schema).ok());

  // Exceeding the evaluation stack budget: rejected (interpreter recurses,
  // the program would need >32 slots).
  ExprPtr deep = Lit(1);
  for (int i = 0; i < 40; ++i) deep = Add(Lit(1), std::move(deep));
  ExprPtr deep_pred = Gt(std::move(deep), Lit(0));
  ASSERT_OK(deep_pred->Bind(schema, nullptr));
  EXPECT_FALSE(CompiledPredicate::Compile(*deep_pred, schema).ok());
}

TEST(ExprCompile, CharTrimmingMatchesInterpreter) {
  Schema schema = SmallSchema();
  // Stored CHAR(4) values are blank-padded; the interpreter trims trailing
  // blanks on load but keeps literal bytes raw. " ab" != "ab".
  const PagePtr page =
      SmallPage({{0, 0.0, "ab"}, {1, 0.0, "ab c"}, {2, 0.0, " ab"},
                 {3, 0.0, ""}, {4, 0.0, "abc"}});
  for (const char* lit : {"ab", " ab", "", "abc", "ab  "}) {
    for (auto make : {&Eq, &Lt, &Ge}) {
      ExprPtr pred = (*make)(Col("s"), Lit(lit));
      ASSERT_OK(pred->Bind(schema, nullptr));
      ASSERT_OK_AND_ASSIGN(CompiledPredicate compiled,
                           CompiledPredicate::Compile(*pred, schema));
      for (int i = 0; i < page->num_tuples(); ++i) {
        TupleView view(&schema, page->tuple(i));
        ASSERT_OK_AND_ASSIGN(bool want, pred->EvalBool(view, nullptr));
        EXPECT_EQ(compiled.Matches(page->tuple(i).data(), nullptr), want)
            << "lit=[" << lit << "] tuple " << i;
      }
    }
  }
  // Sanity on the headline case: trailing blanks trim, leading ones don't.
  ExprPtr eq = Eq(Col("s"), Lit("ab"));
  ASSERT_OK(eq->Bind(schema, nullptr));
  ASSERT_OK_AND_ASSIGN(CompiledPredicate compiled,
                       CompiledPredicate::Compile(*eq, schema));
  EXPECT_EQ(CountMatches(compiled, *page), 1u);
}

TEST(ExprCompile, NanComparisonsMatchInterpreter) {
  Schema schema = SmallSchema();
  const double nan = std::nan("");
  const PagePtr page =
      SmallPage({{0, nan, "a"}, {1, 1.0, "b"}, {2, -0.0, "c"}});
  for (double lit : {1.0, 0.0, nan}) {
    for (auto make : {&Eq, &Ne, &Lt, &Le, &Gt, &Ge}) {
      ExprPtr pred = (*make)(Col("v"), Lit(lit));
      ASSERT_OK(pred->Bind(schema, nullptr));
      ASSERT_OK_AND_ASSIGN(CompiledPredicate compiled,
                           CompiledPredicate::Compile(*pred, schema));
      for (int i = 0; i < page->num_tuples(); ++i) {
        TupleView view(&schema, page->tuple(i));
        ASSERT_OK_AND_ASSIGN(bool want, pred->EvalBool(view, nullptr));
        EXPECT_EQ(compiled.Matches(page->tuple(i).data(), nullptr), want)
            << "lit=" << lit << " tuple " << i;
      }
    }
  }
}

TEST(ExprCompile, HashJoinKeepsDuplicateOrder) {
  Schema schema = SmallSchema();
  // Heavy key duplication on both sides: the hash path chains duplicates
  // and must still emit in exact nested-loops (i-major, ascending-j) order.
  std::vector<std::tuple<int32_t, double, std::string>> rows;
  for (int i = 0; i < 30; ++i) {
    rows.push_back({i % 3, static_cast<double>(i), "x"});
  }
  const PagePtr outer_page = SmallPage(rows);
  const PagePtr inner_page = SmallPage(rows);
  ExprPtr pred = Eq(Col("k"), RightCol("k"));
  ASSERT_OK(pred->Bind(schema, &schema));
  ASSERT_OK_AND_ASSIGN(CompiledJoinPredicate compiled,
                       CompiledJoinPredicate::Compile(*pred, schema, schema));
  ASSERT_TRUE(compiled.hash_eligible());
  EXPECT_FALSE(compiled.has_residual());

  VectorSink interpreted, fast;
  ASSERT_OK(JoinPages(schema, schema, *pred, *outer_page, *inner_page,
                      &interpreted));
  JoinScratch scratch;
  KernelStats stats;
  ASSERT_OK(JoinPages(compiled, *outer_page, *inner_page, &scratch, &fast,
                      &stats));
  EXPECT_EQ(interpreted.tuples().size(), 300u);  // 30 * 10 matches.
  EXPECT_EQ(interpreted.tuples(), fast.tuples());
  EXPECT_EQ(stats.hash_joins.load(), 1u);
}

TEST(ExprCompile, EquiKeyWithResidualSplitsCorrectly) {
  Schema schema = SmallSchema();
  ExprPtr pred = And(Eq(Col("k"), RightCol("k")),
                     Lt(Col("v"), RightCol("v")));
  ASSERT_OK(pred->Bind(schema, &schema));
  ASSERT_OK_AND_ASSIGN(CompiledJoinPredicate compiled,
                       CompiledJoinPredicate::Compile(*pred, schema, schema));
  ASSERT_TRUE(compiled.hash_eligible());
  EXPECT_TRUE(compiled.has_residual());
  EXPECT_EQ(compiled.keys().size(), 1u);

  Random rng(3);
  std::vector<std::tuple<int32_t, double, std::string>> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back({static_cast<int32_t>(rng.Uniform(4)),
                    static_cast<double>(rng.Uniform(6)), "y"});
  }
  const PagePtr outer_page = SmallPage(rows);
  std::shuffle(rows.begin(), rows.end(),
               std::mt19937(42));  // NOLINT: determinism only.
  const PagePtr inner_page = SmallPage(rows);

  VectorSink interpreted, fast;
  ASSERT_OK(JoinPages(schema, schema, *pred, *outer_page, *inner_page,
                      &interpreted));
  JoinScratch scratch;
  ASSERT_OK(
      JoinPages(compiled, *outer_page, *inner_page, &scratch, &fast, nullptr));
  EXPECT_EQ(interpreted.tuples(), fast.tuples());

  // Doubles are never extracted as hash keys (-0.0 == 0.0, NaN).
  ExprPtr dpred = Eq(Col("v"), RightCol("v"));
  ASSERT_OK(dpred->Bind(schema, &schema));
  ASSERT_OK_AND_ASSIGN(CompiledJoinPredicate dcompiled,
                       CompiledJoinPredicate::Compile(*dpred, schema, schema));
  EXPECT_FALSE(dcompiled.hash_eligible());
}

TEST(ExprCompile, SharedPredicateIsThreadSafe) {
  Schema schema = SmallSchema();
  Random rng(5);
  std::vector<std::tuple<int32_t, double, std::string>> rows;
  for (int i = 0; i < 64; ++i) {
    rows.push_back({static_cast<int32_t>(rng.Uniform(8)),
                    static_cast<double>(i), "z"});
  }
  const PagePtr page = SmallPage(rows);
  ExprPtr pred = And(Ge(Col("k"), Lit(2)), Lt(Col("k"), Lit(6)));
  ASSERT_OK(pred->Bind(schema, nullptr));
  ASSERT_OK_AND_ASSIGN(CompiledPredicate compiled,
                       CompiledPredicate::Compile(*pred, schema));
  const uint64_t want = CountMatches(compiled, *page);

  KernelStats stats;
  constexpr int kThreads = 4;
  constexpr int kReps = 200;
  std::vector<std::thread> threads;
  std::vector<uint64_t> sums(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kReps; ++r) {
        sums[static_cast<size_t>(t)] += CountMatches(compiled, *page, &stats);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (uint64_t sum : sums) EXPECT_EQ(sum, want * kReps);
  EXPECT_EQ(stats.compiled_pages.load(), static_cast<uint64_t>(kThreads) * kReps);
}

}  // namespace
}  // namespace dfdb
