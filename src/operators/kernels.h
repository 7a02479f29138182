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
#include "storage/page.h"
#include "storage/page_sink.h"
#include "storage/tuple.h"

namespace dfdb {

/// \brief Reusable hash-table scratch for the equijoin fast path. One per
/// worker/kernel; JoinPages sizes it per inner page, so repeated calls do
/// not reallocate once the vectors reach steady state.
struct JoinScratch {
  std::vector<uint64_t> slot_hash;  ///< Full hash of the slot's key.
  std::vector<int32_t> head;        ///< Slot -> first inner tuple, -1 empty.
  std::vector<int32_t> tail;        ///< Slot -> last inner tuple in chain.
  std::vector<int32_t> next;        ///< Inner tuple -> next with equal key.
};

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
/// method: every outer tuple against every inner tuple, emitting
/// outer ++ inner whenever \p pred holds. Interpreted reference flavour.
///
/// This is the page-granularity unit of the paper's join: "each processor
/// will join a distinct set of pages from the outer relation with all the
/// pages of the inner relation" (Section 4.0).
Status JoinPages(const Schema& outer_schema, const Schema& inner_schema,
                 const Expr& pred, const Page& outer, const Page& inner,
                 PageSink* out);

/// \brief Compiled join. When \p pred carries equi-keys, builds an
/// open-addressing hash table over the inner page in \p scratch and probes
/// it with the outer page (O(n+m) instead of O(n*m)); otherwise runs
/// program-driven nested loops. Output tuple order is identical to the
/// nested-loops flavour in both cases: probes emit matches in ascending
/// inner order, outer-major.
Status JoinPages(const CompiledJoinPredicate& pred, const Page& outer,
                 const Page& inner, JoinScratch* scratch, PageSink* out,
                 KernelStats* stats = nullptr);

/// \brief Runs a fused unary pipeline (restrict/project chain compiled by
/// the optimizer's per-edge decision; see FusedPipeline in expr_compile.h)
/// over one raw input page in a single pass, emitting surviving — possibly
/// projected — tuples straight into \p out. None of the chain's
/// intermediate pages are ever materialized; a mid-chain projection that
/// feeds a later filter is staged per tuple in a small scratch buffer.
Status RunFusedPipeline(const FusedPipeline& fp, const Page& in,
                        PageSink* out, KernelStats* stats = nullptr);

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
