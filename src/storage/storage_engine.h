/// \file storage_engine.h
/// \brief Facade tying the catalog, page store, and heap files together.

#ifndef DFDB_STORAGE_STORAGE_ENGINE_H_
#define DFDB_STORAGE_STORAGE_ENGINE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>

#include "catalog/catalog.h"
#include "common/macros.h"
#include "storage/frame_pool.h"
#include "storage/heap_file.h"
#include "storage/page_store.h"
#include "storage/relation_ref.h"
#include "storage/snapshot.h"

namespace dfdb {

/// \brief Options for StorageEngine::CreateRelation.
struct CreateRelationOptions {
  /// Page size for the relation's heap file; 0 uses the engine default.
  int page_bytes = 0;
};

/// \brief Extension slot for the index subsystem (src/index): built
/// secondary-index structures whose lifetime the storage engine anchors
/// without dfdb_storage linking against the higher index library. The
/// concrete implementation (IndexManager) installs itself via
/// StorageEngine::GetOrCreateIndexCache().
class RelationIndexCache {
 public:
  virtual ~RelationIndexCache() = default;

  /// Invalidation hook: the relation's pages are gone, drop anything built
  /// over them.
  virtual void OnRelationDropped(RelationId id) = 0;
};

/// \brief The database substrate the engines execute against: one catalog,
/// one mass-storage page store, one heap file per relation — plus the MVCC
/// commit clock and snapshot registry.
///
/// Two read paths exist by design: CaptureSnapshot() hands out immutable
/// point-in-time views (what concurrent queries scan), while GetHeapFile()
/// remains the borrowed *writer* path — mutations act on the working head
/// and become visible to new snapshots when CommitRelation()/SyncStats()
/// installs a version under the engine's monotone commit clock.
class StorageEngine {
 public:
  /// \p default_page_bytes is the page size for newly created relations
  /// (the paper's experiments use 16 KB operand pages; Section 3.3 reasons
  /// about 1 KB and 10 KB pages).
  explicit StorageEngine(int default_page_bytes = 16384);
  DFDB_DISALLOW_COPY(StorageEngine);

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  PageStore& page_store() { return store_; }
  const PageStore& page_store() const { return store_; }
  /// The frames every engine built over this storage packs result pages
  /// into: one pool, so concurrent schedulers share one peak.
  FramePool& frame_pool() { return frames_; }
  int default_page_bytes() const { return default_page_bytes_; }

  /// Creates relation + heap file; returns the new id.
  StatusOr<RelationId> CreateRelation(std::string name, Schema schema,
                                      CreateRelationOptions opts = {});

  /// Drops the relation, freeing every page of every version. Dropping a
  /// relation out from under an open snapshot fails that snapshot's later
  /// View() calls (same contract the borrowed HeapFile pointer always had).
  Status DropRelation(std::string_view name);

  /// Borrowed mutable pointer (the writer path); valid until the relation
  /// is dropped. Readers under concurrency should use CaptureSnapshot().
  StatusOr<HeapFile*> GetHeapFile(RelationRef rel);

  /// Commits the heap file (if dirty) and refreshes catalog statistics.
  Status SyncStats(RelationRef rel);

  /// Commits and refreshes statistics for every relation.
  Status SyncAllStats();

  // --- MVCC: commit clock, snapshots, version GC ---

  /// Captures an immutable view at the current commit timestamp. Uncommitted
  /// working-head mutations are *not* visible; call CommitRelation() first
  /// to publish them.
  Snapshot CaptureSnapshot();

  /// Installs the relation's working head as a new committed version under
  /// the next commit timestamp (no-op when clean), then garbage-collects
  /// versions no live snapshot can see.
  Status CommitRelation(RelationRef rel);

  /// Discards the relation's uncommitted head mutations (failed writer).
  Status RollbackRelation(RelationRef rel);

  /// Current commit clock (timestamp of the newest commit; 0 initially).
  uint64_t last_commit_ts() const;

  /// Storage-wide MVCC counters (the engine.mvcc.* family).
  MvccStats mvcc_stats() const;

  /// Returns the installed index cache, creating it with \p factory on
  /// first use (install-once; later calls ignore \p factory). The returned
  /// pointer is stable for the engine's lifetime.
  RelationIndexCache* GetOrCreateIndexCache(
      const std::function<std::unique_ptr<RelationIndexCache>()>& factory);

  /// The installed index cache, or null when no index was ever created.
  RelationIndexCache* index_cache() const;

 private:
  friend class Snapshot;
  friend struct Snapshot::State;

  /// Resolves the newest version of \p rel visible at \p ts.
  StatusOr<SnapshotView> ViewAtSnapshot(RelationRef rel, uint64_t ts);

  /// Drops one open-snapshot registration and GCs newly dead versions.
  void ReleaseSnapshot(uint64_t ts);

  /// Frees retired pages invisible at \p min_live_ts across every file.
  void GcAllFiles(uint64_t min_live_ts);

  /// min over open snapshots, or the commit clock when none are open.
  uint64_t MinLiveSnapshotLocked() const;

  const int default_page_bytes_;
  Catalog catalog_;
  /// Declared ahead of the store, so the pages it holds return their
  /// frames to a live pool when it is destroyed.
  FramePool frames_;
  PageStore store_;
  mutable std::mutex mu_;
  std::unordered_map<RelationId, std::unique_ptr<HeapFile>> files_;

  /// Guards the commit clock and the open-snapshot registry. Commits
  /// happen under this mutex so a concurrent capture sees either the old
  /// clock (and keeps reading the old version) or the new clock with the
  /// new version already installed — never a timestamp whose version is
  /// still in flight.
  mutable std::mutex snap_mu_;
  uint64_t last_commit_ts_ = 0;
  std::multiset<uint64_t> open_snapshots_;
  uint64_t snapshots_captured_ = 0;
  MvccCounters mvcc_;

  mutable std::mutex index_cache_mu_;
  std::unique_ptr<RelationIndexCache> index_cache_;
};

}  // namespace dfdb

#endif  // DFDB_STORAGE_STORAGE_ENGINE_H_
