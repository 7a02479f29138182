/// \file expr_compile.h
/// \brief Compilation of analyzed Expr trees into flat predicate programs.
///
/// The paper's core argument (Sections 3.3, 4.0) is that a page is the right
/// operand granularity because an IP can amortize per-instruction overhead
/// across every tuple on the page. The interpreted Expr::Eval path defeats
/// that: it re-walks a virtual-dispatch tree, materializes Values, and
/// threads StatusOr through every node, per tuple. Compile() lowers a bound
/// Expr once per query into a flat, allocation-free program over raw tuple
/// bytes: column offsets and types are pre-resolved from the fixed-width
/// Schema, type errors are rejected at compile time, and evaluation is a
/// tight loop with no virtual calls and no Status plumbing.
///
/// Compilation is conservative: anything whose interpreted evaluation could
/// fail per tuple (division, CHAR used as a number, unbound columns) is
/// rejected, so a successfully compiled program can never diverge from the
/// interpreted oracle — Matches() returns exactly what Expr::EvalBool()
/// would, for every tuple (see expr_compile_test's differential fuzz).
/// Callers fall back to the interpreted kernels when Compile() fails.

#ifndef DFDB_RA_EXPR_COMPILE_H_
#define DFDB_RA_EXPR_COMPILE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "common/statusor.h"
#include "ra/expr.h"

namespace dfdb {

/// \brief One pre-resolved column-vs-constant comparison (the dominant
/// predicate shape: `k1000 < 100`, `k2 = 1 AND k100 >= 7`, ...).
struct ColCompare {
  enum class Kind : uint8_t {
    kI32I,  ///< int32 column vs int64 constant.
    kI64I,  ///< int64 column vs int64 constant.
    kI32F,  ///< int32 column vs double constant (mixed promote).
    kI64F,  ///< int64 column vs double constant (mixed promote).
    kF64F,  ///< double column vs double constant.
    kStr,   ///< CHAR column (right-trimmed) vs raw constant bytes.
  };
  Kind kind = Kind::kI32I;
  CompareOp op = CompareOp::kEq;
  int32_t offset = 0;  ///< Byte offset of the column in the tuple.
  int32_t width = 0;   ///< Column width (kStr only).
  int64_t const_i = 0;
  double const_f = 0;
  std::string const_s;
};

/// Raw-byte evaluation helpers, defined in the header so the page kernels
/// can inline the per-tuple compare into their strided loops — the whole
/// point of compiling is that the hot loop has no call boundary.
namespace expr_detail {

inline bool ApplyCmp(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

/// Mirror of Value::Compare over raw operands: -1/0/1, with the same
/// NaN behaviour (neither a<b nor a>b yields 0, so NaN "equals" anything —
/// the compiled path must reproduce that, not fix it).
inline int Cmp3I(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }
inline int Cmp3F(double a, double b) { return a < b ? -1 : (a > b ? 1 : 0); }

/// Byte-wise three-way compare matching std::string::compare semantics
/// (char_traits<char> compares like memcmp), sign-normalized like
/// Value::Compare.
inline int Cmp3S(const char* a, uint32_t an, const char* b, uint32_t bn) {
  const uint32_t m = an < bn ? an : bn;
  const int c = m != 0 ? std::memcmp(a, b, m) : 0;
  if (c != 0) return c < 0 ? -1 : 1;
  return an < bn ? -1 : (an > bn ? 1 : 0);
}

inline int64_t LoadI32(const char* base, int32_t off) {
  int32_t x;
  std::memcpy(&x, base + off, 4);
  return x;
}
inline int64_t LoadI64(const char* base, int32_t off) {
  int64_t x;
  std::memcpy(&x, base + off, 8);
  return x;
}
inline double LoadF64(const char* base, int32_t off) {
  double x;
  std::memcpy(&x, base + off, 8);
  return x;
}

/// Right-trims the blank padding of a CHAR column, exactly like
/// TupleView::GetValue does before building the std::string the interpreter
/// compares.
inline uint32_t TrimmedLen(const char* p, int32_t width) {
  uint32_t n = static_cast<uint32_t>(width);
  while (n > 0 && p[n - 1] == ' ') --n;
  return n;
}

inline bool EvalColCompare(const ColCompare& c, const char* t) {
  switch (c.kind) {
    case ColCompare::Kind::kI32I:
      return ApplyCmp(c.op, Cmp3I(LoadI32(t, c.offset), c.const_i));
    case ColCompare::Kind::kI64I:
      return ApplyCmp(c.op, Cmp3I(LoadI64(t, c.offset), c.const_i));
    case ColCompare::Kind::kI32F:
      return ApplyCmp(
          c.op, Cmp3F(static_cast<double>(LoadI32(t, c.offset)), c.const_f));
    case ColCompare::Kind::kI64F:
      return ApplyCmp(
          c.op, Cmp3F(static_cast<double>(LoadI64(t, c.offset)), c.const_f));
    case ColCompare::Kind::kF64F:
      return ApplyCmp(c.op, Cmp3F(LoadF64(t, c.offset), c.const_f));
    case ColCompare::Kind::kStr: {
      const char* p = t + c.offset;
      return ApplyCmp(c.op, Cmp3S(p, TrimmedLen(p, c.width), c.const_s.data(),
                                  static_cast<uint32_t>(c.const_s.size())));
    }
  }
  return false;
}

}  // namespace expr_detail

/// \brief A compiled single- or two-input predicate program.
///
/// Immutable after Compile() and safe to evaluate concurrently from many
/// workers over shared read-only pages (no mutable state in Matches()).
class CompiledPredicate {
 public:
  /// Recognized fast shapes; kGeneric runs the stack program.
  enum class Shape : uint8_t { kGeneric, kSingleCompare, kConjunction };

  /// Compiles a *bound* expression against \p left (and \p right for join
  /// predicates). Fails — and the caller must use the interpreted path —
  /// when the tree contains anything that could error per tuple (division,
  /// CHAR/numeric mixing, unbound or out-of-range columns) or exceeds the
  /// evaluation stack budget.
  static StatusOr<CompiledPredicate> Compile(const Expr& expr,
                                             const Schema& left,
                                             const Schema* right = nullptr);

  /// Evaluates against raw tuple bytes. \p right may be null iff the
  /// expression references no right-side columns (checked at compile time).
  /// Never fails: every error path was rejected by Compile().
  bool Matches(const char* left, const char* right) const;

  Shape shape() const { return shape_; }
  /// Number of stack-program instructions (0 for specialized shapes).
  size_t num_ops() const { return prog_.size(); }
  /// The conjuncts of a kSingleCompare/kConjunction shape.
  const std::vector<ColCompare>& col_compares() const { return cmps_; }

 private:
  friend class ExprCompiler;
  friend class CompiledJoinPredicate;

  /// One stack-machine instruction. Operand types were resolved at compile
  /// time, so every opcode is monomorphic.
  struct Instr {
    enum class Op : uint8_t {
      kLoadI32,   // push sign-extended int32 column [side, offset]
      kLoadI64,   // push int64 column
      kLoadF64,   // push double column
      kLoadStr,   // push right-trimmed CHAR column [side, offset, width]
      kConstI,    // push imm_i
      kConstF,    // push imm_f
      kConstStr,  // push raw constant bytes [str_off, str_len]
      kI2F,       // top: int -> double
      kI2FN,      // next-on-stack: int -> double
      kCmpI,      // pop b,a (int); push cmp(a,b) under `cmp` as 0/1
      kCmpF,      // same over doubles
      kCmpS,      // same over (ptr,len) strings, memcmp order
      kToBoolI,   // top: int -> (x != 0)
      kToBoolF,   // top: double -> (d != 0.0) as int
      kAnd,       // pop b,a (bools); push a & b
      kOr,        // pop b,a (bools); push a | b
      kNot,       // top: bool -> 1 - x
      kAddI, kSubI, kMulI,  // int64 arithmetic
      kAddF, kSubF, kMulF,  // double arithmetic
    };
    Op op;
    CompareOp cmp = CompareOp::kEq;
    uint8_t side = 0;
    int32_t offset = 0;
    int32_t width = 0;
    int64_t imm_i = 0;
    double imm_f = 0;
    uint32_t str_off = 0;
    uint32_t str_len = 0;
  };

  bool RunProgram(const char* left, const char* right) const;

  Shape shape_ = Shape::kGeneric;
  std::vector<ColCompare> cmps_;  // kSingleCompare / kConjunction.
  std::vector<Instr> prog_;       // kGeneric.
  std::string pool_;              // Constant string bytes (kConstStr).
};

/// \brief One `outer.col = inner.col` equality conjunct of a join predicate,
/// usable as a hash key. Restricted to identical non-double column types so
/// raw-byte (or right-trimmed, for CHAR) equality coincides exactly with the
/// interpreted Value::Compare semantics.
struct EquiKey {
  ColumnType type = ColumnType::kInt32;
  int32_t outer_offset = 0;
  int32_t inner_offset = 0;
  int32_t outer_width = 0;
  int32_t inner_width = 0;
};

/// \brief A compiled join predicate: extracted equi-keys plus a residual
/// program, and a full program for the nested-loops fallback.
class CompiledJoinPredicate {
 public:
  /// Compiles a bound join predicate over (outer, inner). Fails under the
  /// same conditions as CompiledPredicate::Compile, in which case the
  /// caller must run the interpreted nested-loops join.
  static StatusOr<CompiledJoinPredicate> Compile(const Expr& pred,
                                                 const Schema& outer,
                                                 const Schema& inner);

  /// True when at least one hashable equality conjunct was found; the
  /// kernel then builds a hash table over the inner page instead of running
  /// the O(n*m) nested loops.
  bool hash_eligible() const { return !keys_.empty(); }
  const std::vector<EquiKey>& keys() const { return keys_; }

  bool has_residual() const { return !residuals_.empty(); }
  /// The non-equi-key remainder of the predicate (one compiled program per
  /// leftover AND-conjunct); true when empty.
  bool ResidualMatches(const char* outer, const char* inner) const {
    for (const CompiledPredicate& r : residuals_) {
      if (!r.Matches(outer, inner)) return false;
    }
    return true;
  }

  /// The full predicate (for the program-driven nested-loops path).
  bool Matches(const char* outer, const char* inner) const {
    return full_.Matches(outer, inner);
  }

 private:
  std::vector<EquiKey> keys_;
  std::vector<CompiledPredicate> residuals_;
  CompiledPredicate full_;
};

inline bool CompiledPredicate::Matches(const char* left,
                                       const char* right) const {
  switch (shape_) {
    case Shape::kSingleCompare:
      return expr_detail::EvalColCompare(cmps_[0], left);
    case Shape::kConjunction:
      for (const ColCompare& c : cmps_) {
        if (!expr_detail::EvalColCompare(c, left)) return false;
      }
      return true;
    case Shape::kGeneric:
      return RunProgram(left, right);
  }
  return false;
}

}  // namespace dfdb

#endif  // DFDB_RA_EXPR_COMPILE_H_
