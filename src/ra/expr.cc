#include "ra/expr.h"

#include <cmath>

#include "common/macros.h"
#include "common/string_util.h"

namespace dfdb {

std::string_view CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

StatusOr<bool> Expr::EvalBool(const TupleView& left,
                              const TupleView* right) const {
  DFDB_ASSIGN_OR_RETURN(Value v, Eval(left, right));
  if (v.type() == ColumnType::kChar) {
    return Status::InvalidArgument("CHAR value used as a predicate");
  }
  DFDB_ASSIGN_OR_RETURN(double d, v.AsNumeric());
  return d != 0.0;
}

StatusOr<Value> ColumnRefExpr::Eval(const TupleView& left,
                                    const TupleView* right) const {
  if (index_ < 0) {
    return Status::FailedPrecondition("column reference not bound: " + name_);
  }
  if (side_ == Side::kLeft) return left.GetValue(index_);
  if (right == nullptr) {
    return Status::InvalidArgument(
        "right-side column referenced in single-input context: " + name_);
  }
  return right->GetValue(index_);
}

Status ColumnRefExpr::Bind(const Schema& left, const Schema* right) {
  const Schema* schema = side_ == Side::kLeft ? &left : right;
  if (schema == nullptr) {
    return Status::InvalidArgument(
        "right-side column in a single-input expression: " + name_);
  }
  auto idx = schema->ColumnIndex(name_);
  if (!idx.ok()) return idx.status();
  index_ = *idx;
  return Status::OK();
}

std::string ColumnRefExpr::ToString() const {
  return side_ == Side::kLeft ? name_ : ("right." + name_);
}

StatusOr<Value> CompareExpr::Eval(const TupleView& left,
                                  const TupleView* right) const {
  DFDB_ASSIGN_OR_RETURN(Value a, lhs_->Eval(left, right));
  DFDB_ASSIGN_OR_RETURN(Value b, rhs_->Eval(left, right));
  DFDB_ASSIGN_OR_RETURN(int c, a.Compare(b));
  bool result = false;
  switch (op_) {
    case CompareOp::kEq:
      result = c == 0;
      break;
    case CompareOp::kNe:
      result = c != 0;
      break;
    case CompareOp::kLt:
      result = c < 0;
      break;
    case CompareOp::kLe:
      result = c <= 0;
      break;
    case CompareOp::kGt:
      result = c > 0;
      break;
    case CompareOp::kGe:
      result = c >= 0;
      break;
  }
  return Value::Int32(result ? 1 : 0);
}

Status CompareExpr::Bind(const Schema& left, const Schema* right) {
  DFDB_RETURN_IF_ERROR(lhs_->Bind(left, right));
  return rhs_->Bind(left, right);
}

std::string CompareExpr::ToString() const {
  return StrFormat("(%s %s %s)", lhs_->ToString().c_str(),
                   std::string(CompareOpToString(op_)).c_str(),
                   rhs_->ToString().c_str());
}

StatusOr<Value> LogicExpr::Eval(const TupleView& left,
                                const TupleView* right) const {
  DFDB_ASSIGN_OR_RETURN(bool a, lhs_->EvalBool(left, right));
  switch (op_) {
    case LogicOp::kNot:
      return Value::Int32(a ? 0 : 1);
    case LogicOp::kAnd: {
      if (!a) return Value::Int32(0);  // Short circuit.
      DFDB_ASSIGN_OR_RETURN(bool b, rhs_->EvalBool(left, right));
      return Value::Int32(b ? 1 : 0);
    }
    case LogicOp::kOr: {
      if (a) return Value::Int32(1);
      DFDB_ASSIGN_OR_RETURN(bool b, rhs_->EvalBool(left, right));
      return Value::Int32(b ? 1 : 0);
    }
  }
  return Status::Internal("unreachable");
}

Status LogicExpr::Bind(const Schema& left, const Schema* right) {
  if (op_ == LogicOp::kNot) {
    if (rhs_ != nullptr) {
      return Status::InvalidArgument("NOT takes exactly one operand");
    }
    return lhs_->Bind(left, right);
  }
  if (rhs_ == nullptr) {
    return Status::InvalidArgument("binary logic op missing right operand");
  }
  DFDB_RETURN_IF_ERROR(lhs_->Bind(left, right));
  return rhs_->Bind(left, right);
}

std::string LogicExpr::ToString() const {
  switch (op_) {
    case LogicOp::kNot:
      return "NOT " + lhs_->ToString();
    case LogicOp::kAnd:
      return StrFormat("(%s AND %s)", lhs_->ToString().c_str(),
                       rhs_->ToString().c_str());
    case LogicOp::kOr:
      return StrFormat("(%s OR %s)", lhs_->ToString().c_str(),
                       rhs_->ToString().c_str());
  }
  return "?";
}

StatusOr<Value> ArithExpr::Eval(const TupleView& left,
                                const TupleView* right) const {
  DFDB_ASSIGN_OR_RETURN(Value a, lhs_->Eval(left, right));
  DFDB_ASSIGN_OR_RETURN(Value b, rhs_->Eval(left, right));
  const bool ints = a.type() != ColumnType::kDouble &&
                    b.type() != ColumnType::kDouble &&
                    a.type() != ColumnType::kChar &&
                    b.type() != ColumnType::kChar;
  if (ints && op_ != ArithOp::kDiv) {
    const int64_t x = a.type() == ColumnType::kInt32 ? a.as_int32() : a.as_int64();
    const int64_t y = b.type() == ColumnType::kInt32 ? b.as_int32() : b.as_int64();
    switch (op_) {
      case ArithOp::kAdd:
        return Value::Int64(x + y);
      case ArithOp::kSub:
        return Value::Int64(x - y);
      case ArithOp::kMul:
        return Value::Int64(x * y);
      case ArithOp::kDiv:
        break;
    }
  }
  DFDB_ASSIGN_OR_RETURN(double x, a.AsNumeric());
  DFDB_ASSIGN_OR_RETURN(double y, b.AsNumeric());
  switch (op_) {
    case ArithOp::kAdd:
      return Value::Double(x + y);
    case ArithOp::kSub:
      return Value::Double(x - y);
    case ArithOp::kMul:
      return Value::Double(x * y);
    case ArithOp::kDiv:
      if (y == 0.0) return Status::InvalidArgument("division by zero");
      return Value::Double(x / y);
  }
  return Status::Internal("unreachable");
}

Status ArithExpr::Bind(const Schema& left, const Schema* right) {
  DFDB_RETURN_IF_ERROR(lhs_->Bind(left, right));
  return rhs_->Bind(left, right);
}

std::string ArithExpr::ToString() const {
  const char* op = "?";
  switch (op_) {
    case ArithOp::kAdd:
      op = "+";
      break;
    case ArithOp::kSub:
      op = "-";
      break;
    case ArithOp::kMul:
      op = "*";
      break;
    case ArithOp::kDiv:
      op = "/";
      break;
  }
  return StrFormat("(%s %s %s)", lhs_->ToString().c_str(), op,
                   rhs_->ToString().c_str());
}

ExprPtr Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprPtr Lit(int32_t v) { return Lit(Value::Int32(v)); }
ExprPtr Lit(int64_t v) { return Lit(Value::Int64(v)); }
ExprPtr Lit(double v) { return Lit(Value::Double(v)); }
ExprPtr Lit(const char* v) { return Lit(Value::Char(v)); }
ExprPtr Col(std::string name) {
  return std::make_shared<ColumnRefExpr>(std::move(name), Side::kLeft);
}
ExprPtr RightCol(std::string name) {
  return std::make_shared<ColumnRefExpr>(std::move(name), Side::kRight);
}
ExprPtr SwapSides(const Expr& e) {
  return e.TransformColumns([](const ColumnRefExpr& ref) {
    return std::make_shared<ColumnRefExpr>(
        ref.name(), ref.side() == Side::kLeft ? Side::kRight : Side::kLeft);
  });
}
ExprPtr Eq(ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(CompareOp::kEq, std::move(l), std::move(r));
}
ExprPtr Ne(ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(CompareOp::kNe, std::move(l), std::move(r));
}
ExprPtr Lt(ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(CompareOp::kLt, std::move(l), std::move(r));
}
ExprPtr Le(ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(CompareOp::kLe, std::move(l), std::move(r));
}
ExprPtr Gt(ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(CompareOp::kGt, std::move(l), std::move(r));
}
ExprPtr Ge(ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(CompareOp::kGe, std::move(l), std::move(r));
}
ExprPtr And(ExprPtr l, ExprPtr r) {
  return std::make_shared<LogicExpr>(LogicOp::kAnd, std::move(l), std::move(r));
}
ExprPtr Or(ExprPtr l, ExprPtr r) {
  return std::make_shared<LogicExpr>(LogicOp::kOr, std::move(l), std::move(r));
}
ExprPtr Not(ExprPtr e) {
  return std::make_shared<LogicExpr>(LogicOp::kNot, std::move(e), nullptr);
}
ExprPtr Add(ExprPtr l, ExprPtr r) {
  return std::make_shared<ArithExpr>(ArithOp::kAdd, std::move(l), std::move(r));
}
ExprPtr Sub(ExprPtr l, ExprPtr r) {
  return std::make_shared<ArithExpr>(ArithOp::kSub, std::move(l), std::move(r));
}
ExprPtr Mul(ExprPtr l, ExprPtr r) {
  return std::make_shared<ArithExpr>(ArithOp::kMul, std::move(l), std::move(r));
}
ExprPtr Div(ExprPtr l, ExprPtr r) {
  return std::make_shared<ArithExpr>(ArithOp::kDiv, std::move(l), std::move(r));
}

}  // namespace dfdb
