#include "storage/page_store.h"

#include "common/string_util.h"

namespace dfdb {

PageId PageStore::Put(PagePtr page) {
  const PageId id = NewId();
  std::lock_guard<std::mutex> lock(mu_);
  stats_.pages_written++;
  stats_.bytes_written += static_cast<uint64_t>(page->payload_bytes());
  pages_.emplace(id, std::move(page));
  return id;
}

StatusOr<PagePtr> PageStore::Get(PageId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pages_.find(id);
  if (it == pages_.end()) {
    return Status::NotFound(StrFormat("page %llu not in store",
                                      static_cast<unsigned long long>(id)));
  }
  stats_.pages_read++;
  stats_.bytes_read += static_cast<uint64_t>(it->second->payload_bytes());
  return it->second;
}

Status PageStore::Free(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pages_.erase(id) == 0) {
    return Status::NotFound(StrFormat("page %llu not in store",
                                      static_cast<unsigned long long>(id)));
  }
  return Status::OK();
}

size_t PageStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_.size();
}

PageStoreStats PageStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PageStore::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = PageStoreStats{};
}

}  // namespace dfdb
