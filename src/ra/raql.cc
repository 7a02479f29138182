/// \file raql.cc
/// \brief Plan/expression → parseable RAQL text.

#include "ra/raql.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/macros.h"
#include "common/string_util.h"

namespace dfdb {

namespace {

/// True when \p name lexes as one identifier token and does not collide
/// with a grammar keyword (which would re-lex as structure, not a name).
bool IsRaqlIdentifier(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_') {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  static const char* kKeywords[] = {
      "restrict", "project", "join", "union", "diff",  "agg", "append",
      "delete",   "and",     "or",   "not",   "right", "as",  "dedup",
      "bag",      "count",   "sum",  "min",   "max",   "avg"};
  for (const char* kw : kKeywords) {
    if (name == kw) return false;
  }
  return true;
}

Status BadName(const char* what, const std::string& name) {
  return Status::InvalidArgument(StrFormat(
      "cannot serialize to RAQL: %s '%s' is not a plain identifier", what,
      name.c_str()));
}

StatusOr<std::string> LiteralToRaql(const Value& v) {
  switch (v.type()) {
    case ColumnType::kInt32:
      return std::to_string(v.as_int32());
    case ColumnType::kInt64: {
      const int64_t x = v.as_int64();
      if (x < std::numeric_limits<int32_t>::min() ||
          x > std::numeric_limits<int32_t>::max()) {
        return Status::InvalidArgument(
            "cannot serialize to RAQL: int64 literal out of int32 range");
      }
      return std::to_string(x);
    }
    case ColumnType::kDouble: {
      const double x = v.as_double();
      if (!std::isfinite(x)) {
        return Status::InvalidArgument(
            "cannot serialize to RAQL: non-finite double literal");
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", x);
      std::string s(buf);
      // The RAQL lexer only accepts digits and one '.' — no exponent form.
      if (s.find_first_of("eE") != std::string::npos) {
        return Status::InvalidArgument(
            "cannot serialize to RAQL: double literal needs exponent form");
      }
      if (s.find('.') == std::string::npos) s += ".0";
      return s;
    }
    case ColumnType::kChar: {
      const std::string& s = v.as_char();
      // The lexer has no escapes: a quote in the value cannot round-trip.
      if (s.find('\'') != std::string::npos) {
        return Status::InvalidArgument(
            "cannot serialize to RAQL: string literal contains a quote");
      }
      return "'" + s + "'";
    }
  }
  return Status::InvalidArgument("cannot serialize unknown literal type");
}

StatusOr<std::string> ExprText(const Expr& expr) {
  switch (expr.kind()) {
    case Expr::Kind::kLiteral:
      return LiteralToRaql(static_cast<const LiteralExpr&>(expr).value());
    case Expr::Kind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      if (!IsRaqlIdentifier(ref.name())) return BadName("column", ref.name());
      return ref.side() == Side::kRight ? "right." + ref.name() : ref.name();
    }
    case Expr::Kind::kCompare: {
      const auto& cmp = static_cast<const CompareExpr&>(expr);
      DFDB_ASSIGN_OR_RETURN(std::string lhs, ExprText(cmp.lhs()));
      DFDB_ASSIGN_OR_RETURN(std::string rhs, ExprText(cmp.rhs()));
      return StrFormat("(%s %s %s)", lhs.c_str(),
                       std::string(CompareOpToString(cmp.op())).c_str(),
                       rhs.c_str());
    }
    case Expr::Kind::kLogic: {
      const auto& logic = static_cast<const LogicExpr&>(expr);
      DFDB_ASSIGN_OR_RETURN(std::string lhs, ExprText(logic.lhs()));
      if (logic.op() == LogicOp::kNot) {
        return StrFormat("(not %s)", lhs.c_str());
      }
      DFDB_ASSIGN_OR_RETURN(std::string rhs, ExprText(*logic.rhs()));
      return StrFormat("(%s %s %s)", lhs.c_str(),
                       logic.op() == LogicOp::kAnd ? "and" : "or",
                       rhs.c_str());
    }
    case Expr::Kind::kArith: {
      const auto& arith = static_cast<const ArithExpr&>(expr);
      DFDB_ASSIGN_OR_RETURN(std::string lhs, ExprText(arith.lhs()));
      DFDB_ASSIGN_OR_RETURN(std::string rhs, ExprText(arith.rhs()));
      const char* op = "+";
      switch (arith.op()) {
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
      return StrFormat("(%s %s %s)", lhs.c_str(), op, rhs.c_str());
    }
  }
  return Status::InvalidArgument("cannot serialize unknown expression kind");
}

StatusOr<std::string> NameList(const std::vector<std::string>& names,
                               const char* what) {
  std::string out = "[";
  for (size_t i = 0; i < names.size(); ++i) {
    if (!IsRaqlIdentifier(names[i])) return BadName(what, names[i]);
    if (i > 0) out += ", ";
    out += names[i];
  }
  out += "]";
  return out;
}

StatusOr<std::string> AggListText(const std::vector<AggregateSpec>& specs) {
  std::string out = "[";
  for (size_t i = 0; i < specs.size(); ++i) {
    const AggregateSpec& spec = specs[i];
    if (spec.func != AggregateSpec::Func::kCount &&
        !IsRaqlIdentifier(spec.column)) {
      return BadName("aggregate column", spec.column);
    }
    if (!IsRaqlIdentifier(spec.output_name)) {
      return BadName("aggregate output", spec.output_name);
    }
    const char* func = "count";
    switch (spec.func) {
      case AggregateSpec::Func::kCount:
        func = "count";
        break;
      case AggregateSpec::Func::kSum:
        func = "sum";
        break;
      case AggregateSpec::Func::kMin:
        func = "min";
        break;
      case AggregateSpec::Func::kMax:
        func = "max";
        break;
      case AggregateSpec::Func::kAvg:
        func = "avg";
        break;
    }
    if (i > 0) out += ", ";
    out += StrFormat("%s(%s) as %s", func,
                     spec.func == AggregateSpec::Func::kCount
                         ? ""
                         : spec.column.c_str(),
                     spec.output_name.c_str());
  }
  out += "]";
  return out;
}

StatusOr<std::string> PlanText(const PlanNode& node) {
  switch (node.op) {
    case PlanOp::kScan:
      if (!IsRaqlIdentifier(node.relation)) {
        return BadName("relation", node.relation);
      }
      return node.relation;
    case PlanOp::kRestrict: {
      DFDB_ASSIGN_OR_RETURN(std::string child, PlanText(node.child(0)));
      DFDB_ASSIGN_OR_RETURN(std::string pred, ExprText(*node.predicate));
      return StrFormat("restrict(%s, %s)", child.c_str(), pred.c_str());
    }
    case PlanOp::kProject: {
      DFDB_ASSIGN_OR_RETURN(std::string child, PlanText(node.child(0)));
      DFDB_ASSIGN_OR_RETURN(std::string cols,
                            NameList(node.columns, "column"));
      return StrFormat("project(%s, %s%s)", child.c_str(), cols.c_str(),
                       node.dedup ? ", dedup" : "");
    }
    case PlanOp::kJoin: {
      // A swapped join prints as the join it replaced, which parses back to
      // the same schema and rows.
      DFDB_ASSIGN_OR_RETURN(std::string left, PlanText(node.join_left()));
      DFDB_ASSIGN_OR_RETURN(std::string right, PlanText(node.join_right()));
      DFDB_ASSIGN_OR_RETURN(std::string pred,
                            ExprText(*node.join_predicate()));
      return StrFormat("join(%s, %s, %s)", left.c_str(), right.c_str(),
                       pred.c_str());
    }
    case PlanOp::kUnion: {
      DFDB_ASSIGN_OR_RETURN(std::string left, PlanText(node.child(0)));
      DFDB_ASSIGN_OR_RETURN(std::string right, PlanText(node.child(1)));
      return StrFormat("union(%s, %s%s)", left.c_str(), right.c_str(),
                       node.bag_semantics ? ", bag" : "");
    }
    case PlanOp::kDifference: {
      DFDB_ASSIGN_OR_RETURN(std::string left, PlanText(node.child(0)));
      DFDB_ASSIGN_OR_RETURN(std::string right, PlanText(node.child(1)));
      return StrFormat("diff(%s, %s)", left.c_str(), right.c_str());
    }
    case PlanOp::kAggregate: {
      DFDB_ASSIGN_OR_RETURN(std::string child, PlanText(node.child(0)));
      DFDB_ASSIGN_OR_RETURN(std::string groups,
                            NameList(node.columns, "group column"));
      DFDB_ASSIGN_OR_RETURN(std::string specs, AggListText(node.aggregates));
      return StrFormat("agg(%s, %s, %s)", child.c_str(), groups.c_str(),
                       specs.c_str());
    }
    case PlanOp::kAppend: {
      DFDB_ASSIGN_OR_RETURN(std::string child, PlanText(node.child(0)));
      if (!IsRaqlIdentifier(node.relation)) {
        return BadName("relation", node.relation);
      }
      return StrFormat("append(%s, %s)", child.c_str(),
                       node.relation.c_str());
    }
    case PlanOp::kDelete: {
      if (!IsRaqlIdentifier(node.relation)) {
        return BadName("relation", node.relation);
      }
      DFDB_ASSIGN_OR_RETURN(std::string pred, ExprText(*node.predicate));
      return StrFormat("delete(%s, %s)", node.relation.c_str(), pred.c_str());
    }
  }
  return Status::InvalidArgument("cannot serialize unknown plan operator");
}

}  // namespace

StatusOr<std::string> ExprToRaql(const Expr& expr) { return ExprText(expr); }

StatusOr<std::string> PlanToRaql(const PlanNode& plan) {
  return PlanText(plan);
}

StatusOr<std::string> AggregateListToRaql(
    const std::vector<AggregateSpec>& specs) {
  return AggListText(specs);
}

}  // namespace dfdb
