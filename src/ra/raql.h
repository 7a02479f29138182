/// \file raql.h
/// \brief Plan → RAQL text serialization (the inverse of ra/parser.h).
///
/// The distributed coordinator ships plan fragments to workers as RAQL
/// text over the wire (dist/coordinator.h), so plan trees must round-trip
/// through the textual language. PlanNode::ToString and Expr::ToString are
/// debugging renderings and are *not* parseable; these functions emit text
/// that ParseQuery/ParsePredicate accept and that resolves to the same
/// query.
///
/// Serialization is total-or-error: constructs the grammar cannot express
/// (non-finite doubles, literals with quotes, identifiers that collide with
/// keywords) yield InvalidArgument instead of silently emitting unparseable
/// text. A join the optimizer swapped (PlanNode::join_swapped) prints as
/// the join it replaced.

#ifndef DFDB_RA_RAQL_H_
#define DFDB_RA_RAQL_H_

#include <string>

#include "common/statusor.h"
#include "ra/expr.h"
#include "ra/plan.h"

namespace dfdb {

/// Renders \p expr as RAQL predicate text (fully parenthesized). The result
/// parses back (ParsePredicate) to an expression with identical semantics.
StatusOr<std::string> ExprToRaql(const Expr& expr);

/// Renders \p plan as a RAQL query. Works on resolved and unresolved trees
/// alike (only the logical fields are consulted). The result parses back
/// (ParseQuery) to an equivalent tree.
StatusOr<std::string> PlanToRaql(const PlanNode& plan);

/// Renders an aggregate spec list as the bracketed RAQL form
/// `[count() as n, sum(col) as s, ...]` — the piece the distributed
/// fragment planner needs when it rebuilds an agg() call over an exchange
/// temp relation instead of a serialized subtree.
StatusOr<std::string> AggregateListToRaql(
    const std::vector<AggregateSpec>& specs);

}  // namespace dfdb

#endif  // DFDB_RA_RAQL_H_
