#include "storage/buffer_manager.h"

#include <vector>

#include "common/logging.h"

namespace dfdb {

BufferManager::BufferManager(PageStore* store, int local_capacity_pages,
                             int cache_capacity_pages)
    : store_(store),
      local_capacity_(local_capacity_pages),
      cache_capacity_(cache_capacity_pages) {
  DFDB_CHECK(store != nullptr);
  DFDB_CHECK(local_capacity_pages >= 1);
  DFDB_CHECK(cache_capacity_pages >= 1);
}

StatusOr<PagePtr> BufferManager::Fetch(PageId id) {
  auto page = store_->Get(id);
  if (!page.ok()) return page.status();
  const int bytes = (*page)->payload_bytes();

  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  if (it != entries_.end() && it->second.level == Level::kLocal) {
    stats_.local_hits++;
    // Refresh LRU position.
    local_lru_.erase(it->second.lru_it);
    local_lru_.push_front(id);
    it->second.lru_it = local_lru_.begin();
    return *page;
  }
  if (it != entries_.end() && it->second.level == Level::kCache) {
    // Cache hit: transfer cache -> local.
    stats_.cache_reads++;
    stats_.cache_read_bytes += static_cast<uint64_t>(bytes);
    cache_lru_.erase(it->second.lru_it);
    entries_.erase(it);
    InsertLocalLocked(id, bytes);
    return *page;
  }
  // Miss: disk -> cache -> local. The cache residency is transient (the
  // page streams through), so we charge disk->cache and cache->local and
  // land it in local memory.
  stats_.disk_reads++;
  stats_.disk_read_bytes += static_cast<uint64_t>(bytes);
  stats_.cache_reads++;
  stats_.cache_read_bytes += static_cast<uint64_t>(bytes);
  InsertLocalLocked(id, bytes);
  return *page;
}

Status BufferManager::ReadFiltered(PageId id, const PushdownFilter& filter,
                                   TupleRun* run, PushdownCounters* counters) {
  auto page = store_->Get(id);
  if (!page.ok()) return page.status();
  const int bytes = (*page)->payload_bytes();
  const int n = (*page)->num_tuples();

  // Run the compiled program against the raw page before touching residency
  // state: the scan happens inside the device, outside the manager's lock.
  const size_t before = run->num_tuples();
  DFDB_RETURN_IF_ERROR(filter.Filter(**page, run));
  const uint64_t survivors = run->num_tuples() - before;
  const uint64_t surviving_bytes =
      survivors * static_cast<uint64_t>((*page)->tuple_width());

  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  if (it != entries_.end() && it->second.level == Level::kLocal) {
    // Already in local memory: nothing to elide, the filter just saves
    // the consumer a pass. Refresh LRU like a plain fetch.
    stats_.local_hits++;
    local_lru_.erase(it->second.lru_it);
    local_lru_.push_front(id);
    it->second.lru_it = local_lru_.begin();
  } else if (it != entries_.end() && it->second.level == Level::kCache) {
    // Filter at the cache: only survivors occupy the port. The raw page
    // stays cache-resident — survivors, not the page, move up.
    stats_.cache_reads++;
    stats_.cache_read_bytes += surviving_bytes;
    cache_lru_.erase(it->second.lru_it);
    cache_lru_.push_front(id);
    it->second.lru_it = cache_lru_.begin();
    if (counters != nullptr) {
      counters->bytes_elided += static_cast<uint64_t>(bytes) - surviving_bytes;
    }
  } else {
    // Absent: the drive cannot filter, so the raw page streams into the
    // cache in full and the program runs there.
    stats_.disk_reads++;
    stats_.disk_read_bytes += static_cast<uint64_t>(bytes);
    stats_.cache_reads++;
    stats_.cache_read_bytes += surviving_bytes;
    InsertCacheLocked(id, bytes);
    if (counters != nullptr) {
      counters->bytes_elided += static_cast<uint64_t>(bytes) - surviving_bytes;
    }
  }
  if (counters != nullptr) {
    counters->pages_filtered++;
    counters->tuples_in += static_cast<uint64_t>(n);
    counters->tuples_out += survivors;
  }
  return Status::OK();
}

PageId BufferManager::PutNew(PagePtr page) {
  const int bytes = page->payload_bytes();
  const PageId id = store_->Put(std::move(page));
  std::lock_guard<std::mutex> lock(mu_);
  InsertLocalLocked(id, bytes);
  return id;
}

Status BufferManager::Discard(PageId id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(id);
    if (it != entries_.end()) {
      if (it->second.level == Level::kLocal) {
        local_lru_.erase(it->second.lru_it);
      } else if (it->second.level == Level::kCache) {
        cache_lru_.erase(it->second.lru_it);
      }
      entries_.erase(it);
    }
  }
  return store_->Free(id);
}

void BufferManager::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  while (!local_lru_.empty()) EvictFromLocalLocked();
  while (!cache_lru_.empty()) EvictFromCacheLocked();
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
  return static_cast<int>(local_lru_.size());
}

int BufferManager::cache_resident_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(cache_lru_.size());
}

void BufferManager::InsertLocalLocked(PageId id, int bytes) {
  while (static_cast<int>(local_lru_.size()) >= local_capacity_) {
    EvictFromLocalLocked();
  }
  local_lru_.push_front(id);
  entries_[id] = Entry{Level::kLocal, bytes, local_lru_.begin()};
}

void BufferManager::InsertCacheLocked(PageId id, int bytes) {
  while (static_cast<int>(cache_lru_.size()) >= cache_capacity_) {
    EvictFromCacheLocked();
  }
  cache_lru_.push_front(id);
  entries_[id] = Entry{Level::kCache, bytes, cache_lru_.begin()};
}

void BufferManager::EvictFromLocalLocked() {
  if (local_lru_.empty()) return;
  const PageId victim = local_lru_.back();
  local_lru_.pop_back();
  auto it = entries_.find(victim);
  DFDB_CHECK(it != entries_.end());
  const int bytes = it->second.bytes;
  // Writeback local -> cache ("the IC will write the least desirable pages
  // to its segment of the multiport disk cache", Section 4.1).
  stats_.cache_writes++;
  stats_.cache_write_bytes += static_cast<uint64_t>(bytes);
  while (static_cast<int>(cache_lru_.size()) >= cache_capacity_) {
    EvictFromCacheLocked();
  }
  cache_lru_.push_front(victim);
  it->second.level = Level::kCache;
  it->second.lru_it = cache_lru_.begin();
}

void BufferManager::EvictFromCacheLocked() {
  if (cache_lru_.empty()) return;
  const PageId victim = cache_lru_.back();
  cache_lru_.pop_back();
  auto it = entries_.find(victim);
  DFDB_CHECK(it != entries_.end());
  // Writeback cache -> disk ("when an IC fills its segment of the disk
  // cache, pages will be swapped out to disk").
  stats_.disk_writes++;
  stats_.disk_write_bytes += static_cast<uint64_t>(it->second.bytes);
  entries_.erase(it);
}

}  // namespace dfdb
