/// \file pushdown.h
/// \brief Near-data predicate pushdown interface.
///
/// The paper's segmented per-IC disk cache (Section 4.1) exists so operand
/// pages can be filtered close to where they live instead of saturating the
/// arbitration network (Section 3.3). `PushdownFilter` lets the storage
/// hierarchy run a compiled restrict during the cache -> local transfer
/// without the storage layer depending on the expression subsystem: the
/// engine adapts a `CompiledPredicate` behind it, and
/// `BufferManager::ReadFiltered` emits only surviving tuples into the scan's
/// output `PageSink`.

#ifndef DFDB_STORAGE_PUSHDOWN_H_
#define DFDB_STORAGE_PUSHDOWN_H_

namespace dfdb {

/// \brief A predicate evaluated against raw tuple bytes at a storage level.
///
/// Implementations must be infallible per tuple (the engine guarantees this
/// by only pushing down `CompiledPredicate` programs, whose per-tuple error
/// paths are rejected at compile time) and thread-compatible: `Matches` is
/// called concurrently for distinct pages but never mutates shared state.
class PushdownFilter {
 public:
  virtual ~PushdownFilter() = default;
  virtual bool Matches(const char* tuple) const = 0;
};

}  // namespace dfdb

#endif  // DFDB_STORAGE_PUSHDOWN_H_
