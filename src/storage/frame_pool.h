/// \file frame_pool.h
/// \brief Recycled page frames: the memory cells that result pages are
/// written into.
///
/// A packer fills frames tuple by tuple and seals each full one into a
/// shared page. Without a pool every sealed page is a fresh 16 KB heap
/// allocation, freed wherever its last reader drops it; with one, the
/// frame goes back to the pool and the next page reuses its buffer, up to
/// a bound on the memory the pool keeps idle.

#ifndef DFDB_STORAGE_FRAME_POOL_H_
#define DFDB_STORAGE_FRAME_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/macros.h"
#include "common/statusor.h"
#include "storage/page.h"

namespace dfdb {

/// \brief Counts of a FramePool's frames.
struct FramePoolStats {
  uint64_t created = 0;    ///< Frames ever allocated.
  uint64_t live = 0;       ///< Handed out and not yet returned.
  uint64_t peak_live = 0;  ///< Highest `live` so far.
  uint64_t free = 0;       ///< Waiting in the pool for reuse.
};

/// \brief Hands out empty page frames and takes them back when the last
/// reference to their sealed page drops.
///
/// A frame is created only when no free frame of the requested capacity
/// exists, so per capacity the frames held (live and free) never outnumber
/// the peak count of frames live at once, and a steady stream of pages
/// allocates no payload. The free frames are bounded too: a frame returned
/// while they already take kMaxFreeBytes is freed, so one large result or
/// intermediate does not pin its peak for the life of a long-running
/// storage engine. A sealed page's deleter reaches the pool through a weak
/// reference: a page that outlives its pool (a query result kept after its
/// storage engine is gone) is simply freed. A returned frame keeps its
/// buffer but holds no tuple; under AddressSanitizer its payload is
/// poisoned until the frame is handed out again.
///
/// Thread-safe.
class FramePool {
 public:
  /// The most memory free frames keep, counting each frame's payload and
  /// header: about twice the peak of perfbench's paper10_engine workload,
  /// the paper's ten queries at 16 KB pages. Its simulator runs reach some
  /// 870 frames live at once; its engine batches some 430, since an
  /// intermediate page's frame returns as soon as its readers are done.
  static constexpr size_t kMaxFreeBytes = size_t{32} << 20;

  FramePool();
  ~FramePool();
  DFDB_DISALLOW_COPY(FramePool);

  /// An empty page tagged \p relation for tuples of \p tuple_width bytes in
  /// \p capacity_bytes of payload: a free frame of that capacity when one
  /// exists, else a new one. InvalidArgument as for Page::Create.
  StatusOr<std::unique_ptr<Page>> Acquire(RelationId relation,
                                          int tuple_width, int capacity_bytes);

  /// Shares \p frame as a sealed page whose frame comes back to this pool
  /// when its last PagePtr drops.
  PagePtr Seal(std::unique_ptr<Page> frame);

  /// Takes back a frame that was never sealed.
  void Release(std::unique_ptr<Page> frame);

  FramePoolStats stats() const;

 private:
  struct Shared;
  /// The deleter of every page Seal() shares.
  struct ReturnFrame {
    std::weak_ptr<Shared> pool;
    void operator()(const Page* page) const;
  };

  std::shared_ptr<Shared> shared_;
};

}  // namespace dfdb

#endif  // DFDB_STORAGE_FRAME_POOL_H_
