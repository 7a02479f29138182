#include "storage/buffer_manager.h"

#include "common/logging.h"

namespace dfdb {

BufferManager::BufferManager(PageStore* store, int local_capacity_pages,
                             int cache_capacity_pages)
    : store_(store),
      residency_({local_capacity_pages, cache_capacity_pages}) {
  DFDB_CHECK(store != nullptr);
  DFDB_CHECK(local_capacity_pages >= 1);
  DFDB_CHECK(cache_capacity_pages >= 1);
}

StatusOr<PagePtr> BufferManager::Fetch(PageId id) {
  auto page = store_->Get(id);
  if (!page.ok()) return page.status();
  Read(id, (*page)->payload_bytes());
  return page;
}

void BufferManager::Read(PageId id, int bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (residency_.Touch(id)) {
    case kLocal:
      // Touching refreshed its LRU position.
      stats_.local_hits++;
      return;
    case kCache:
      // Cache hit: transfer cache -> local.
      stats_.cache_reads++;
      stats_.cache_read_bytes += static_cast<uint64_t>(bytes);
      break;
    default:
      // Miss: disk -> cache -> local. The cache residency is transient (the
      // page streams through), so we charge disk->cache and cache->local
      // and land it in local memory.
      stats_.disk_reads++;
      stats_.disk_read_bytes += static_cast<uint64_t>(bytes);
      stats_.cache_reads++;
      stats_.cache_read_bytes += static_cast<uint64_t>(bytes);
  }
  AdmitLocalLocked(id, bytes);
}

Status BufferManager::ReadFiltered(PageId id, const PushdownFilter& filter,
                                   PagePacker::Writer* writer,
                                   PushdownCounters* counters) {
  auto page = store_->Get(id);
  if (!page.ok()) return page.status();
  const int bytes = (*page)->payload_bytes();
  const int n = (*page)->num_tuples();

  // Run the compiled program against the raw page before touching residency
  // state: the scan happens inside the device, outside the manager's lock.
  const uint64_t before = writer->tuples_written();
  DFDB_RETURN_IF_ERROR(filter.Filter(**page, writer));
  const uint64_t survivors = writer->tuples_written() - before;
  const uint64_t surviving_bytes =
      survivors * static_cast<uint64_t>((*page)->tuple_width());

  std::lock_guard<std::mutex> lock(mu_);
  switch (residency_.Touch(id)) {
    case kLocal:
      // Already in local memory: nothing to elide, the filter just saves
      // the consumer a pass. Touching refreshed it like a plain read.
      stats_.local_hits++;
      break;
    case kCache:
      // Filter at the cache: only survivors occupy the port. The raw page
      // stays cache-resident (refreshed) — survivors, not the page, move up.
      stats_.cache_reads++;
      stats_.cache_read_bytes += surviving_bytes;
      if (counters != nullptr) {
        counters->bytes_elided +=
            static_cast<uint64_t>(bytes) - surviving_bytes;
      }
      break;
    default:
      // Absent: the drive cannot filter, so the raw page streams into the
      // cache in full and the program runs there.
      stats_.disk_reads++;
      stats_.disk_read_bytes += static_cast<uint64_t>(bytes);
      stats_.cache_reads++;
      stats_.cache_read_bytes += surviving_bytes;
      AdmitCacheLocked(id, bytes);
      if (counters != nullptr) {
        counters->bytes_elided +=
            static_cast<uint64_t>(bytes) - surviving_bytes;
      }
  }
  if (counters != nullptr) {
    counters->pages_filtered++;
    counters->tuples_in += static_cast<uint64_t>(n);
    counters->tuples_out += survivors;
  }
  return Status::OK();
}

PageId BufferManager::Admit(const Page& page) {
  const PageId id = store_->NewId();
  std::lock_guard<std::mutex> lock(mu_);
  AdmitLocalLocked(id, page.payload_bytes());
  return id;
}

void BufferManager::Forget(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  residency_.Forget(id);
}

void BufferManager::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  residency_.Drain(kLocal, [this](PageId victim, int bytes) {
    SpillLocalLocked(victim, bytes);
  });
  residency_.Drain(kCache,
                   [this](PageId, int bytes) { SpillCacheLocked(bytes); });
}

BufferStats BufferManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void BufferManager::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = BufferStats{};
}

int BufferManager::local_resident_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return residency_.size(kLocal);
}

int BufferManager::cache_resident_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return residency_.size(kCache);
}

void BufferManager::AdmitLocalLocked(PageId id, int bytes) {
  residency_.Admit(id, kLocal, bytes, [this](PageId victim, int victim_bytes) {
    SpillLocalLocked(victim, victim_bytes);
  });
}

void BufferManager::AdmitCacheLocked(PageId id, int bytes) {
  residency_.Admit(id, kCache, bytes, [this](PageId, int victim_bytes) {
    SpillCacheLocked(victim_bytes);
  });
}

void BufferManager::SpillLocalLocked(PageId victim, int bytes) {
  // Writeback local -> cache ("the IC will write the least desirable pages
  // to its segment of the multiport disk cache", Section 4.1).
  stats_.cache_writes++;
  stats_.cache_write_bytes += static_cast<uint64_t>(bytes);
  AdmitCacheLocked(victim, bytes);
}

void BufferManager::SpillCacheLocked(int bytes) {
  // Writeback cache -> disk ("when an IC fills its segment of the disk
  // cache, pages will be swapped out to disk").
  stats_.disk_writes++;
  stats_.disk_write_bytes += static_cast<uint64_t>(bytes);
}

}  // namespace dfdb
