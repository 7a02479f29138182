/// \file snapshot.h
/// \brief MVCC snapshot reads: immutable per-query views of versioned
/// heap files.
///
/// Section 4.0 requires "careful control of which queries are permitted to
/// execute concurrently". Relation-granularity locking alone makes every
/// reader queue behind every writer; versioned storage removes that: each
/// committed mutation installs a new page-id list for its relation under a
/// monotone commit timestamp, and a query reads through a Snapshot handle
/// captured at admission. Readers never block and never see a torn write —
/// they resolve each relation to the newest version committed at or before
/// the snapshot timestamp. Writers still serialize against each other
/// through the admission queue (writer–writer conflicts only).
///
/// Page versioning is copy-on-write at page granularity: sealed pages are
/// immutable, appends only add pages, and DeleteWhere rewrites survivors
/// into fresh pages — so a version is just a list of page ids, and an old
/// version stays byte-identically readable until version GC frees its
/// retired pages (only once no live snapshot can see them).

#ifndef DFDB_STORAGE_SNAPSHOT_H_
#define DFDB_STORAGE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/statusor.h"
#include "obs/counters.h"
#include "storage/page.h"
#include "storage/relation_ref.h"

namespace dfdb {

class StorageEngine;

/// \brief Read-only view of one relation at a snapshot timestamp: the
/// sealed pages and tuple count of the newest version committed at or
/// before the snapshot. This is what scan/restrict/join kernels consume;
/// writers go through StorageEngine::GetHeapFile and install a new version
/// at commit.
struct SnapshotView {
  RelationId relation = kInvalidRelationId;
  /// Timestamp of the version this view resolved to (<= the snapshot ts).
  uint64_t commit_ts = 0;
  std::vector<PageId> pages;
  uint64_t tuple_count = 0;
};

/// \brief Handle to one immutable point-in-time view of the database.
///
/// Captured via StorageEngine::CaptureSnapshot(); cheap to copy (shared
/// state). While any copy is alive, every page visible at ts() is pinned
/// against version GC. The pin drops when the last copy is destroyed or
/// Release() is called. The StorageEngine must outlive every snapshot
/// captured from it.
class Snapshot {
 public:
  /// Invalid handle: valid() is false and View() fails.
  Snapshot() = default;

  bool valid() const { return state_ != nullptr; }

  /// The commit timestamp this snapshot reads at (0 for invalid handles).
  uint64_t ts() const;

  /// Resolves \p rel to the newest version committed at or before ts().
  /// NotFound when the relation does not exist; FailedPrecondition on an
  /// invalid handle.
  StatusOr<SnapshotView> View(RelationRef rel) const;

  /// Drops this handle's pin early (idempotent across copies sharing the
  /// state). Retired pages only this snapshot could see become
  /// reclaimable.
  void Release();

 private:
  friend class StorageEngine;

  struct State {
    StorageEngine* engine = nullptr;
    uint64_t ts = 0;
    std::atomic<bool> released{false};
    ~State();
  };

  explicit Snapshot(std::shared_ptr<State> state) : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// \brief Shared atomic counters behind MvccStats, owned by the
/// StorageEngine and updated by its heap files.
struct MvccCounters {
  std::atomic<uint64_t> pages_copied{0};
  std::atomic<uint64_t> gc_reclaimed{0};
  std::atomic<uint64_t> commits{0};
};

}  // namespace dfdb

#endif  // DFDB_STORAGE_SNAPSHOT_H_
