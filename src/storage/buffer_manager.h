/// \file buffer_manager.h
/// \brief The three-level storage hierarchy of Section 4.1.
///
/// "Thus, the IC local memory, the disk cache, and the mass storage devices
/// form a three-level storage hierarchy." The BufferManager tracks page
/// *residency* in the two upper levels (the PageStore is the always-valid
/// mass-storage level of base relations) and accounts for every byte that
/// crosses a level boundary. Those byte counters are what Figure 4.2 plots.

#ifndef DFDB_STORAGE_BUFFER_MANAGER_H_
#define DFDB_STORAGE_BUFFER_MANAGER_H_

#include <cstdint>
#include <mutex>

#include "common/macros.h"
#include "obs/counters.h"
#include "storage/page_sink.h"
#include "storage/page_store.h"
#include "storage/pushdown.h"
#include "storage/residency_set.h"

namespace dfdb {

/// \brief LRU-managed two-level cache over a PageStore.
///
/// Level 0 ("local memory") and level 1 ("disk cache") have fixed capacities
/// in pages. A read promotes the page to level 0; eviction cascades
/// 0 -> 1 -> gone (mass storage always holds the bytes). Newly produced
/// pages enter at level 0 (they were just materialized by a processor).
///
/// Residency lives in one ResidencySet under one mutex, so tracking a page
/// allocates nothing.
class BufferManager {
 public:
  /// \p local_capacity_pages and \p cache_capacity_pages must be >= 1.
  BufferManager(PageStore* store, int local_capacity_pages,
                int cache_capacity_pages);
  DFDB_DISALLOW_COPY(BufferManager);

  /// Fetches a base page from the store through the hierarchy, counting
  /// transfers as Read() does.
  StatusOr<PagePtr> Fetch(PageId id);

  /// Counts the transfers that bring page \p id, of \p bytes payload, into
  /// local memory, for a caller that already holds the page: none on a
  /// local hit, cache -> local on a cache hit, disk -> cache -> local on a
  /// miss.
  void Read(PageId id, int bytes);

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

  /// Makes a freshly produced page resident in local memory and returns
  /// its id, drawn from the store's counter so it cannot collide with a
  /// base page. Nothing is stored: the producer hands the page itself to
  /// its consumer, which charges its reads by id. No transfer is counted
  /// until the page is evicted or read.
  PageId Admit(const Page& page);

  /// Drops \p id's residency; a no-op when neither level holds it.
  void Forget(PageId id);

  /// Evicts everything from both levels (counting writebacks), e.g. between
  /// benchmark phases.
  void FlushAll();

  BufferStats stats() const;
  void ResetStats();

  int local_resident_pages() const;
  int cache_resident_pages() const;

 private:
  enum Level { kLocal = 0, kCache = 1 };

  // All private helpers require mu_ held.
  void AdmitLocalLocked(PageId id, int bytes);
  void AdmitCacheLocked(PageId id, int bytes);
  /// A local-memory victim is written back to the disk cache.
  void SpillLocalLocked(PageId victim, int bytes);
  /// A disk-cache victim is written back to mass storage.
  void SpillCacheLocked(int bytes);

  PageStore* store_;

  mutable std::mutex mu_;
  ResidencySet residency_;
  BufferStats stats_;
};

}  // namespace dfdb

#endif  // DFDB_STORAGE_BUFFER_MANAGER_H_
