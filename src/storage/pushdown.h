/// \file pushdown.h
/// \brief Near-data predicate pushdown interface.
///
/// The paper's segmented per-IC disk cache (Section 4.1) exists so operand
/// pages can be filtered close to where they live instead of saturating the
/// arbitration network (Section 3.3). `PushdownFilter` lets the storage
/// hierarchy run a compiled restrict during the cache -> local transfer
/// without the storage layer depending on the expression subsystem: the
/// engine adapts the compiled restrict page kernel behind it, and
/// `BufferManager::ReadFiltered` filters a whole page into the caller's
/// `TupleRun`, which the scan then packs into its output pages.

#ifndef DFDB_STORAGE_PUSHDOWN_H_
#define DFDB_STORAGE_PUSHDOWN_H_

#include "common/status.h"
#include "storage/page.h"
#include "storage/page_sink.h"

namespace dfdb {

/// \brief A predicate evaluated against a raw page at a storage level.
///
/// Implementations must be infallible per tuple (the engine guarantees this
/// by only pushing down `CompiledPredicate` programs, whose per-tuple error
/// paths are rejected at compile time) and thread-compatible: `Filter` is
/// called concurrently for distinct pages but never mutates shared state.
class PushdownFilter {
 public:
  virtual ~PushdownFilter() = default;
  /// Appends the tuples of \p page that satisfy the predicate to \p run,
  /// in page order.
  virtual Status Filter(const Page& page, TupleRun* run) const = 0;
};

}  // namespace dfdb

#endif  // DFDB_STORAGE_PUSHDOWN_H_
