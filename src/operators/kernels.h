/// \file kernels.h
/// \brief Stateless page-at-a-time operator kernels.
///
/// These are the computations an instruction processor performs on the data
/// page(s) of one instruction packet. Both backends reach them through the
/// plan node's NodeProgram (operators/node_program.h): the threads engine
/// from its worker tasks, the machine simulator at its simulated IPs, whose
/// timing model also charges for the output size.
///
/// Each predicate-driven kernel comes in two flavours. The Expr flavour
/// interprets the tree per tuple; it is the semantic reference (the
/// differential-fuzz oracle, and reference.cc's path). The CompiledPredicate
/// / CompiledJoinPredicate flavour runs the flat program from
/// ra/expr_compile.h over all tuples of the page — this is what the engines
/// use, falling back to the Expr flavour when compilation is rejected.

#ifndef DFDB_OPERATORS_KERNELS_H_
#define DFDB_OPERATORS_KERNELS_H_

#include <cstdint>
#include <vector>

#include "catalog/schema.h"
#include "obs/counters.h"
#include "ra/expr.h"
#include "ra/expr_compile.h"
#include "ra/plan.h"
#include "storage/page.h"
#include "storage/page_sink.h"
#include "storage/tuple.h"

namespace dfdb {

/// \brief Open-addressing hash table over the equi-join keys of one inner
/// page (>= 2x occupancy). BuildJoinTable fills it once per inner page;
/// after that it is only read, so every outer page's probe, from any
/// thread, shares it.
struct JoinTable {
  std::vector<uint64_t> slot_hash;  ///< Full hash of the slot's key.
  std::vector<int32_t> head;        ///< Slot -> first inner tuple, -1 empty.
  std::vector<int32_t> tail;        ///< Slot -> last inner tuple in chain.
  std::vector<int32_t> next;        ///< Inner tuple -> next with equal key.
  uint64_t collisions = 0;  ///< Taken slots the build probed past.
};

/// \brief A prober's reusable scratch: the key hashes of the outer page it
/// is joining (HashOuterKeys), computed once per outer page and reused
/// against every inner table, plus the table JoinPages rebuilds per call.
/// Callers rehash whenever the outer page changes; the scratch never
/// remembers which page it hashed.
struct JoinScratch {
  std::vector<uint64_t> outer_hash;  ///< One per outer tuple.
  JoinTable table;                   ///< JoinPages' inner table.
};

/// Emits the join of \p outer and \p inner with its parts in \p emit order
/// (ra/plan.h). A swapped join has the query's right input as its outer
/// and emits inner ++ outer, so its output keeps the column order and
/// bytes of the join it replaced.
inline Status EmitJoined(PageSink* out, JoinEmit emit, Slice outer,
                         Slice inner) {
  const bool outer_first = emit == JoinEmit::kOuterInner;
  const Slice parts[2] = {outer_first ? outer : inner,
                          outer_first ? inner : outer};
  return out->EmitParts(parts, 2);
}

/// \brief Emits tuples of \p in satisfying \p pred (the `restrict` operator
/// applied to one page). Interpreted reference flavour.
Status RestrictPage(const Schema& schema, const Expr& pred, const Page& in,
                    PageSink* out);

/// \brief Compiled restrict: runs the predicate program over every tuple.
Status RestrictPage(const CompiledPredicate& pred, const Page& in,
                    PageSink* out, KernelStats* stats = nullptr);

/// \brief Emits the \p indices columns of every tuple of \p in (projection
/// without duplicate elimination; see DuplicateEliminator for full project).
/// Adjacent source columns are merged into runs and emitted via
/// PageSink::EmitParts, so no per-tuple buffer is materialized.
Status ProjectPage(const Schema& schema, const std::vector<int>& indices,
                   const Page& in, PageSink* out);

/// \brief Joins one outer page against one inner page with the nested-loops
/// method: every outer tuple against every inner tuple, emitting the pair
/// in \p emit order whenever \p pred holds. Interpreted reference flavour.
///
/// This is the page-granularity unit of the paper's join: "each processor
/// will join a distinct set of pages from the outer relation with all the
/// pages of the inner relation" (Section 4.0).
Status JoinPages(const Schema& outer_schema, const Schema& inner_schema,
                 const Expr& pred, const Page& outer, const Page& inner,
                 PageSink* out, JoinEmit emit = JoinEmit::kOuterInner);

/// \brief Builds \p table over the equi-keys of \p inner. \p pred must be
/// hash_eligible(). Duplicate keys chain in ascending inner order.
void BuildJoinTable(const CompiledJoinPredicate& pred, const Page& inner,
                    JoinTable* table);

/// \brief Hashes the equi-keys of every tuple of \p outer into
/// scratch->outer_hash, for ProbeJoin against any number of inner tables.
/// A no-op when \p pred has no equi-keys.
void HashOuterKeys(const CompiledJoinPredicate& pred, const Page& outer,
                   JoinScratch* scratch);

/// \brief The compiled join of one outer page with one inner page. With
/// \p table (BuildJoinTable of \p inner) it probes: one lookup per outer
/// tuple by its hash in \p scratch (HashOuterKeys of \p outer), then the
/// key's chain, O(n+m) instead of O(n*m), with residual conjuncts run per
/// match. Without a table, it runs program-driven nested loops.
///
/// Output order is the same in every case: outer-major, each outer
/// tuple's matches in ascending inner order, and within each tuple the
/// parts in \p emit order (outer ++ inner unless the join was swapped).
/// Counts one kernel.hash_joins (plus the table's build collisions) or one
/// kernel.nested_joins per call.
Status ProbeJoin(const CompiledJoinPredicate& pred, const Page& outer,
                 const JoinScratch& scratch, const Page& inner,
                 const JoinTable* table, PageSink* out,
                 KernelStats* stats = nullptr,
                 JoinEmit emit = JoinEmit::kOuterInner);

/// \brief Build-then-probe over one page pair (tests and benchmarks; the
/// backends build each inner table once). Hashes when \p pred carries
/// equi-keys and \p scratch is given, else runs nested loops.
Status JoinPages(const CompiledJoinPredicate& pred, const Page& outer,
                 const Page& inner, JoinScratch* scratch, PageSink* out,
                 KernelStats* stats = nullptr,
                 JoinEmit emit = JoinEmit::kOuterInner);

/// \brief Copies every tuple of \p in to \p out (union branch plumbing).
Status CopyPage(const Page& in, PageSink* out);

/// \brief Counts tuples of \p in satisfying \p pred without emitting
/// (selectivity probes in the workload generator). Compiles the predicate
/// internally and falls back to interpretation when compilation fails.
StatusOr<uint64_t> CountMatches(const Schema& schema, const Expr& pred,
                                const Page& in, KernelStats* stats = nullptr);

/// \brief Compiled count for callers that already hold a program.
uint64_t CountMatches(const CompiledPredicate& pred, const Page& in,
                      KernelStats* stats = nullptr);

}  // namespace dfdb

#endif  // DFDB_OPERATORS_KERNELS_H_
