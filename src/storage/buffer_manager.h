/// \file buffer_manager.h
/// \brief The three-level storage hierarchy of Section 4.1.
///
/// "Thus, the IC local memory, the disk cache, and the mass storage devices
/// form a three-level storage hierarchy." The BufferManager tracks page
/// *residency* in the two upper levels (the PageStore is the always-valid
/// mass-storage level) and accounts for every byte that crosses a level
/// boundary. Those byte counters are what Figure 4.2 plots.

#ifndef DFDB_STORAGE_BUFFER_MANAGER_H_
#define DFDB_STORAGE_BUFFER_MANAGER_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "common/macros.h"
#include "obs/counters.h"
#include "storage/page_sink.h"
#include "storage/page_store.h"
#include "storage/pushdown.h"

namespace dfdb {

/// \brief LRU-managed two-level cache over a PageStore.
///
/// Level 0 ("local memory") and level 1 ("disk cache") have fixed capacities
/// in pages. A fetch promotes the page to level 0; eviction cascades
/// 0 -> 1 -> gone (mass storage always holds the bytes). Newly produced
/// pages enter at level 0 (they were just materialized by a processor).
class BufferManager {
 public:
  /// \p local_capacity_pages and \p cache_capacity_pages must be >= 1.
  BufferManager(PageStore* store, int local_capacity_pages,
                int cache_capacity_pages);
  DFDB_DISALLOW_COPY(BufferManager);

  /// Fetches a page through the hierarchy, counting transfers.
  StatusOr<PagePtr> Fetch(PageId id);

  /// Near-data read: applies \p filter to the page *at the level where it
  /// resides* and writes only survivors through \p writer, so the
  /// cache -> local transfer is charged for surviving bytes only (the scan
  /// itself stays inside the device). The page is not promoted to local
  /// memory — survivors, not the raw page, move up the hierarchy; a page
  /// absent from both levels streams disk -> cache in full (the drive
  /// cannot filter) and then filters at the cache. Counters are charged to
  /// \p counters when non-null.
  Status ReadFiltered(PageId id, const PushdownFilter& filter,
                      PagePacker::Writer* writer, PushdownCounters* counters);

  /// Registers a freshly produced page: stores it in mass storage's map
  /// (logical home), makes it resident in local memory, and returns its id.
  /// No transfer is counted until it is evicted or re-fetched.
  PageId PutNew(PagePtr page);

  /// Drops residency everywhere and frees the page from the store.
  Status Discard(PageId id);

  /// Evicts everything from both levels (counting writebacks), e.g. between
  /// benchmark phases.
  void FlushAll();

  BufferStats stats() const;
  void ResetStats();

  int local_resident_pages() const;
  int cache_resident_pages() const;

 private:
  enum class Level { kLocal, kCache, kNone };

  struct Entry {
    Level level;
    int bytes;
    std::list<PageId>::iterator lru_it;
  };

  // All private helpers require mu_ held.
  void InsertLocalLocked(PageId id, int bytes);
  void InsertCacheLocked(PageId id, int bytes);
  void EvictFromLocalLocked();
  void EvictFromCacheLocked();

  PageStore* store_;
  const int local_capacity_;
  const int cache_capacity_;

  mutable std::mutex mu_;
  std::unordered_map<PageId, Entry> entries_;
  std::list<PageId> local_lru_;  // Front = most recent.
  std::list<PageId> cache_lru_;
  BufferStats stats_;
};

}  // namespace dfdb

#endif  // DFDB_STORAGE_BUFFER_MANAGER_H_
