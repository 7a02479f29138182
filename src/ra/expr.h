/// \file expr.h
/// \brief Scalar expression trees: predicates and arithmetic over tuples.
///
/// Expressions are evaluated against one tuple (restrict/project) or a pair
/// of tuples (join predicates). A ColumnRef names its input side so the same
/// machinery serves both cases.

#ifndef DFDB_RA_EXPR_H_
#define DFDB_RA_EXPR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/types.h"
#include "common/status.h"
#include "common/statusor.h"
#include "storage/tuple.h"

namespace dfdb {

class Expr;
class ColumnRefExpr;
/// Expressions are shared mutable only during Bind(); after analysis they
/// are treated as immutable and may be read concurrently.
using ExprPtr = std::shared_ptr<Expr>;

/// Comparison and arithmetic operators.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class LogicOp { kAnd, kOr, kNot };
enum class ArithOp { kAdd, kSub, kMul, kDiv };

std::string_view CompareOpToString(CompareOp op);

/// \brief Which input tuple a column reference reads from.
enum class Side : int { kLeft = 0, kRight = 1 };

/// \brief Immutable expression node.
///
/// Construction helpers live at the bottom of this header. Expressions are
/// shared (shared_ptr) because plans are cloned across engine runs.
class Expr {
 public:
  enum class Kind { kLiteral, kColumnRef, kCompare, kLogic, kArith };

  virtual ~Expr() = default;

  Kind kind() const { return kind_; }

  /// Evaluates against \p left (and \p right, required iff some ColumnRef
  /// uses Side::kRight).
  virtual StatusOr<Value> Eval(const TupleView& left,
                               const TupleView* right) const = 0;

  /// Convenience wrapper: evaluates and coerces to bool. Any non-zero
  /// numeric is true; CHAR values are an error.
  StatusOr<bool> EvalBool(const TupleView& left, const TupleView* right) const;

  /// Binds column names to indices and checks types against the schemas.
  /// \p right may be null for single-input expressions.
  virtual Status Bind(const Schema& left, const Schema* right) = 0;

  /// True if any node references Side::kRight.
  virtual bool ReferencesRight() const = 0;

  /// Appends every column reference in the tree to \p out (analysis hook
  /// for the optimizer: which sides/names a predicate touches).
  virtual void CollectColumnRefs(
      std::vector<const ColumnRefExpr*>* out) const = 0;

  /// Rebuilds the tree, replacing every column reference with
  /// \p fn(ref) — the optimizer's mechanism for side swaps (join input
  /// reordering) and renames (pushing predicates through projections).
  /// The result is unbound; call Bind() before evaluating.
  virtual ExprPtr TransformColumns(
      const std::function<ExprPtr(const ColumnRefExpr&)>& fn) const = 0;

  virtual std::string ToString() const = 0;

 protected:
  explicit Expr(Kind kind) : kind_(kind) {}

 private:
  Kind kind_;
};

/// \brief A constant Value.
class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value v) : Expr(Kind::kLiteral), value_(std::move(v)) {}

  StatusOr<Value> Eval(const TupleView&, const TupleView*) const override {
    return value_;
  }
  Status Bind(const Schema&, const Schema*) override { return Status::OK(); }
  bool ReferencesRight() const override { return false; }
  void CollectColumnRefs(std::vector<const ColumnRefExpr*>*) const override {}
  ExprPtr TransformColumns(
      const std::function<ExprPtr(const ColumnRefExpr&)>&) const override {
    return std::make_shared<LiteralExpr>(value_);
  }
  std::string ToString() const override { return value_.ToString(); }

  const Value& value() const { return value_; }

 private:
  Value value_;
};

/// \brief A column reference, by name until Bind() resolves the index.
class ColumnRefExpr final : public Expr {
 public:
  ColumnRefExpr(std::string name, Side side)
      : Expr(Kind::kColumnRef), name_(std::move(name)), side_(side) {}

  StatusOr<Value> Eval(const TupleView& left,
                       const TupleView* right) const override;
  Status Bind(const Schema& left, const Schema* right) override;
  bool ReferencesRight() const override { return side_ == Side::kRight; }
  void CollectColumnRefs(
      std::vector<const ColumnRefExpr*>* out) const override {
    out->push_back(this);
  }
  ExprPtr TransformColumns(
      const std::function<ExprPtr(const ColumnRefExpr&)>& fn) const override {
    return fn(*this);
  }
  std::string ToString() const override;

  Side side() const { return side_; }
  const std::string& name() const { return name_; }
  /// Resolved index; -1 before Bind().
  int index() const { return index_; }

 private:
  std::string name_;
  Side side_;
  int index_ = -1;
};

/// \brief lhs <op> rhs comparison producing Int32 0/1.
class CompareExpr final : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(Kind::kCompare), op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  StatusOr<Value> Eval(const TupleView& left,
                       const TupleView* right) const override;
  Status Bind(const Schema& left, const Schema* right) override;
  bool ReferencesRight() const override {
    return lhs_->ReferencesRight() || rhs_->ReferencesRight();
  }
  void CollectColumnRefs(
      std::vector<const ColumnRefExpr*>* out) const override {
    lhs_->CollectColumnRefs(out);
    rhs_->CollectColumnRefs(out);
  }
  ExprPtr TransformColumns(
      const std::function<ExprPtr(const ColumnRefExpr&)>& fn) const override {
    return std::make_shared<CompareExpr>(op_, lhs_->TransformColumns(fn),
                                         rhs_->TransformColumns(fn));
  }
  std::string ToString() const override;

  CompareOp op() const { return op_; }
  const Expr& lhs() const { return *lhs_; }
  const Expr& rhs() const { return *rhs_; }

 private:
  CompareOp op_;
  ExprPtr lhs_, rhs_;
};

/// \brief AND / OR / NOT over boolean-valued children.
class LogicExpr final : public Expr {
 public:
  /// For kNot, \p rhs must be null.
  LogicExpr(LogicOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(Kind::kLogic), op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  StatusOr<Value> Eval(const TupleView& left,
                       const TupleView* right) const override;
  Status Bind(const Schema& left, const Schema* right) override;
  bool ReferencesRight() const override {
    return lhs_->ReferencesRight() || (rhs_ && rhs_->ReferencesRight());
  }
  void CollectColumnRefs(
      std::vector<const ColumnRefExpr*>* out) const override {
    lhs_->CollectColumnRefs(out);
    if (rhs_) rhs_->CollectColumnRefs(out);
  }
  ExprPtr TransformColumns(
      const std::function<ExprPtr(const ColumnRefExpr&)>& fn) const override {
    return std::make_shared<LogicExpr>(
        op_, lhs_->TransformColumns(fn),
        rhs_ ? rhs_->TransformColumns(fn) : nullptr);
  }
  std::string ToString() const override;

  LogicOp op() const { return op_; }
  const Expr& lhs() const { return *lhs_; }
  const Expr* rhs() const { return rhs_.get(); }
  ExprPtr shared_lhs() const { return lhs_; }
  ExprPtr shared_rhs() const { return rhs_; }

 private:
  LogicOp op_;
  ExprPtr lhs_, rhs_;
};

/// \brief Arithmetic over numeric children; result is Double unless both
/// inputs are integers and the op is not division.
class ArithExpr final : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(Kind::kArith), op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  StatusOr<Value> Eval(const TupleView& left,
                       const TupleView* right) const override;
  Status Bind(const Schema& left, const Schema* right) override;
  bool ReferencesRight() const override {
    return lhs_->ReferencesRight() || rhs_->ReferencesRight();
  }
  void CollectColumnRefs(
      std::vector<const ColumnRefExpr*>* out) const override {
    lhs_->CollectColumnRefs(out);
    rhs_->CollectColumnRefs(out);
  }
  ExprPtr TransformColumns(
      const std::function<ExprPtr(const ColumnRefExpr&)>& fn) const override {
    return std::make_shared<ArithExpr>(op_, lhs_->TransformColumns(fn),
                                       rhs_->TransformColumns(fn));
  }
  std::string ToString() const override;

  ArithOp op() const { return op_; }
  const Expr& lhs() const { return *lhs_; }
  const Expr& rhs() const { return *rhs_; }

 private:
  ArithOp op_;
  ExprPtr lhs_, rhs_;
};

/// \name Construction helpers
/// @{
ExprPtr Lit(Value v);
ExprPtr Lit(int32_t v);
ExprPtr Lit(int64_t v);
ExprPtr Lit(double v);
ExprPtr Lit(const char* v);
/// Column of the (single or left) input.
ExprPtr Col(std::string name);
/// Column of the right input of a join predicate.
ExprPtr RightCol(std::string name);
ExprPtr Eq(ExprPtr l, ExprPtr r);
ExprPtr Ne(ExprPtr l, ExprPtr r);
ExprPtr Lt(ExprPtr l, ExprPtr r);
ExprPtr Le(ExprPtr l, ExprPtr r);
ExprPtr Gt(ExprPtr l, ExprPtr r);
ExprPtr Ge(ExprPtr l, ExprPtr r);
ExprPtr And(ExprPtr l, ExprPtr r);
ExprPtr Or(ExprPtr l, ExprPtr r);
ExprPtr Not(ExprPtr e);
ExprPtr Add(ExprPtr l, ExprPtr r);
ExprPtr Sub(ExprPtr l, ExprPtr r);
ExprPtr Mul(ExprPtr l, ExprPtr r);
ExprPtr Div(ExprPtr l, ExprPtr r);
/// @}

/// Rebuilds \p e with the side of every column reference flipped, the
/// predicate of a join whose inputs trade places. The result is unbound.
ExprPtr SwapSides(const Expr& e);

}  // namespace dfdb

#endif  // DFDB_RA_EXPR_H_
