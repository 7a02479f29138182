/// \file sort_merge_join.h
/// \brief The "sorted-merge" equi-join baseline (Blasgen & Eswaran).
///
/// The paper cites this as the O(n log n) uniprocessor algorithm that is
/// fastest on one processor but hard to parallelize (Section 2.1). We
/// implement it as the single-threaded comparator for the nested-loops
/// engine benchmarks.

#ifndef DFDB_OPERATORS_SORT_MERGE_JOIN_H_
#define DFDB_OPERATORS_SORT_MERGE_JOIN_H_

#include <vector>

#include "catalog/schema.h"
#include "operators/kernels.h"
#include "storage/page.h"
#include "storage/page_sink.h"

namespace dfdb {

/// \brief Equi-joins two fully materialized relations by sorting both sides
/// on the join column and merging. Emits each matching pair with its parts
/// in \p emit order (outer ++ inner unless the join was swapped).
///
/// \p outer_col / \p inner_col are the join columns (must be the same type).
/// Handles duplicate keys on both sides (block cross products).
Status SortMergeJoin(const Schema& outer_schema,
                     const std::vector<PagePtr>& outer_pages, int outer_col,
                     const Schema& inner_schema,
                     const std::vector<PagePtr>& inner_pages, int inner_col,
                     PageSink* out, JoinEmit emit = JoinEmit::kOuterInner);

}  // namespace dfdb

#endif  // DFDB_OPERATORS_SORT_MERGE_JOIN_H_
