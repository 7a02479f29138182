#include "storage/storage_engine.h"

#include "common/logging.h"
#include "common/macros.h"

namespace dfdb {

StorageEngine::StorageEngine(int default_page_bytes)
    : default_page_bytes_(default_page_bytes) {}

StatusOr<RelationId> StorageEngine::CreateRelation(std::string name,
                                                   Schema schema,
                                                   CreateRelationOptions opts) {
  const int page_bytes =
      opts.page_bytes > 0 ? opts.page_bytes : default_page_bytes_;
  if (page_bytes < schema.tuple_width()) {
    return Status::InvalidArgument(
        "page size cannot hold a single tuple of this schema");
  }
  DFDB_ASSIGN_OR_RETURN(RelationId id,
                        catalog_.CreateRelation(name, schema));
  std::lock_guard<std::mutex> lock(mu_);
  files_.emplace(id, std::make_unique<HeapFile>(id, std::move(schema),
                                                page_bytes, &store_, &mvcc_));
  return id;
}

Status StorageEngine::DropRelation(std::string_view name) {
  DFDB_ASSIGN_OR_RETURN(RelationMeta meta, catalog_.GetRelation(name));
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(meta.id);
    if (it != files_.end()) {
      for (PageId pid : it->second->AllPageIds()) {
        // Best effort: a page may already have been freed by a consumer.
        (void)store_.Free(pid);
      }
      files_.erase(it);
    }
  }
  if (RelationIndexCache* cache = index_cache()) {
    cache->OnRelationDropped(meta.id);
  }
  return catalog_.DropRelation(name);
}

StatusOr<HeapFile*> StorageEngine::GetHeapFile(RelationRef rel) {
  RelationId id = rel.id();
  if (rel.by_name()) {
    DFDB_ASSIGN_OR_RETURN(RelationMeta meta, catalog_.GetRelation(rel.name()));
    id = meta.id;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(id);
  if (it == files_.end()) {
    return Status::NotFound("no heap file for relation id");
  }
  return it->second.get();
}

Status StorageEngine::SyncStats(RelationRef rel) {
  DFDB_ASSIGN_OR_RETURN(HeapFile * file, GetHeapFile(rel));
  DFDB_RETURN_IF_ERROR(CommitRelation(file->relation()));
  return catalog_.UpdateStats(file->relation(), file->tuple_count(),
                              file->page_count());
}

Status StorageEngine::SyncAllStats() {
  for (const std::string& name : catalog_.ListRelations()) {
    DFDB_RETURN_IF_ERROR(SyncStats(name));
  }
  return Status::OK();
}

Snapshot StorageEngine::CaptureSnapshot() {
  auto state = std::make_shared<Snapshot::State>();
  state->engine = this;
  std::lock_guard<std::mutex> lock(snap_mu_);
  state->ts = last_commit_ts_;
  open_snapshots_.insert(state->ts);
  ++snapshots_captured_;
  return Snapshot(std::move(state));
}

Status StorageEngine::CommitRelation(RelationRef rel) {
  DFDB_ASSIGN_OR_RETURN(HeapFile * file, GetHeapFile(rel));
  uint64_t min_live = 0;
  {
    // Assigning the timestamp and installing the version both happen under
    // snap_mu_: a capture serialized before sees the old clock, one after
    // sees the version already installed.
    std::lock_guard<std::mutex> lock(snap_mu_);
    if (!file->dirty()) return Status::OK();
    DFDB_RETURN_IF_ERROR(file->Commit(last_commit_ts_ + 1));
    ++last_commit_ts_;
    min_live = MinLiveSnapshotLocked();
  }
  // Opportunistic GC keeps the no-snapshot case at the historical storage
  // footprint: with nothing open, the superseded version dies right here.
  file->GcUpTo(min_live);
  return Status::OK();
}

Status StorageEngine::RollbackRelation(RelationRef rel) {
  DFDB_ASSIGN_OR_RETURN(HeapFile * file, GetHeapFile(rel));
  std::lock_guard<std::mutex> lock(snap_mu_);
  return file->RollbackToCommitted();
}

uint64_t StorageEngine::last_commit_ts() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return last_commit_ts_;
}

MvccStats StorageEngine::mvcc_stats() const {
  MvccStats stats;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    stats.snapshots_open = open_snapshots_.size();
    stats.snapshots_captured = snapshots_captured_;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, file] : files_) {
      stats.versions_live += file->version_count();
    }
  }
  stats.pages_copied = mvcc_.pages_copied.load(std::memory_order_relaxed);
  stats.gc_reclaimed = mvcc_.gc_reclaimed.load(std::memory_order_relaxed);
  stats.commits = mvcc_.commits.load(std::memory_order_relaxed);
  return stats;
}

StatusOr<SnapshotView> StorageEngine::ViewAtSnapshot(RelationRef rel,
                                                     uint64_t ts) {
  DFDB_ASSIGN_OR_RETURN(HeapFile * file, GetHeapFile(rel));
  HeapFileVersion version = file->ViewAt(ts);
  SnapshotView view;
  view.relation = file->relation();
  view.commit_ts = version.commit_ts;
  view.pages = std::move(version.pages);
  view.tuple_count = version.tuple_count;
  return view;
}

void StorageEngine::ReleaseSnapshot(uint64_t ts) {
  uint64_t min_live = 0;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    auto it = open_snapshots_.find(ts);
    DFDB_CHECK(it != open_snapshots_.end())
        << "releasing a snapshot that is not open";
    open_snapshots_.erase(it);
    min_live = MinLiveSnapshotLocked();
  }
  GcAllFiles(min_live);
}

void StorageEngine::GcAllFiles(uint64_t min_live_ts) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, file] : files_) {
    file->GcUpTo(min_live_ts);
  }
}

uint64_t StorageEngine::MinLiveSnapshotLocked() const {
  return open_snapshots_.empty() ? last_commit_ts_ : *open_snapshots_.begin();
}

RelationIndexCache* StorageEngine::GetOrCreateIndexCache(
    const std::function<std::unique_ptr<RelationIndexCache>()>& factory) {
  std::lock_guard<std::mutex> lock(index_cache_mu_);
  if (index_cache_ == nullptr) index_cache_ = factory();
  return index_cache_.get();
}

RelationIndexCache* StorageEngine::index_cache() const {
  std::lock_guard<std::mutex> lock(index_cache_mu_);
  return index_cache_.get();
}

}  // namespace dfdb
