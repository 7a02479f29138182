/// \file page_store.h
/// \brief Page persistence: the simulated mass-storage level.
///
/// The paper's machine keeps relations on IBM 3330 disk drives. We simulate
/// mass storage as an in-memory PageId -> Page map with byte-level traffic
/// accounting; the timing cost of the devices is modelled separately (see
/// device_model.h) so the same store backs both the real multithreaded
/// engine and the discrete-event machine simulator.

#ifndef DFDB_STORAGE_PAGE_STORE_H_
#define DFDB_STORAGE_PAGE_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "common/macros.h"
#include "storage/page.h"

namespace dfdb {

/// \brief Cumulative I/O statistics of a PageStore.
struct PageStoreStats {
  uint64_t pages_written = 0;
  uint64_t pages_read = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
};

/// \brief Thread-safe in-memory page repository with unique id assignment.
class PageStore {
 public:
  PageStore() = default;
  DFDB_DISALLOW_COPY(PageStore);

  /// Stores \p page and returns its new id.
  PageId Put(PagePtr page);

  /// A new id that no stored page has or will have, for a page tracked
  /// elsewhere (the buffer hierarchy's residency of an intermediate page,
  /// which never enters the store).
  PageId NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Fetches a page; NotFound if the id was never stored or was freed.
  StatusOr<PagePtr> Get(PageId id) const;

  /// Releases a page that no relation version references any more.
  Status Free(PageId id);

  /// Number of live pages.
  size_t size() const;

  PageStoreStats stats() const;
  void ResetStats();

 private:
  mutable std::mutex mu_;
  std::unordered_map<PageId, PagePtr> pages_;
  std::atomic<PageId> next_id_{1};
  // Read counters advance inside const Get(); statistics are not part of
  // the store's logical state.
  mutable PageStoreStats stats_;
};

}  // namespace dfdb

#endif  // DFDB_STORAGE_PAGE_STORE_H_
