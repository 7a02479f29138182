#include "storage/frame_pool.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define DFDB_POISON_FRAMES 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DFDB_POISON_FRAMES 1
#endif
#endif

#ifdef DFDB_POISON_FRAMES
#include <sanitizer/asan_interface.h>
#endif

namespace dfdb {

namespace {

/// Marks a free frame's whole payload unaddressable, so a stale Slice into
/// a recycled page faults under AddressSanitizer; a no-op elsewhere.
void SetPoisoned(const char* payload, int bytes, bool poisoned) {
#ifdef DFDB_POISON_FRAMES
  if (poisoned) {
    ASAN_POISON_MEMORY_REGION(payload, static_cast<size_t>(bytes));
  } else {
    ASAN_UNPOISON_MEMORY_REGION(payload, static_cast<size_t>(bytes));
  }
#else
  (void)payload;
  (void)bytes;
  (void)poisoned;
#endif
}

/// What one frame takes while it waits in the pool.
size_t FrameBytes(int capacity_bytes) {
  return static_cast<size_t>(capacity_bytes) + sizeof(Page);
}

}  // namespace

struct FramePool::Shared {
  std::mutex mu;
  /// Free frames by payload capacity.
  std::unordered_map<int, std::vector<std::unique_ptr<Page>>> free;
  /// FrameBytes summed over `free`; at most kMaxFreeBytes.
  size_t free_bytes = 0;
  FramePoolStats stats;

  ~Shared() {
    for (auto& [capacity, frames] : free) {
      for (const std::unique_ptr<Page>& frame : frames) {
        SetPoisoned(frame->data_.get(), frame->capacity_bytes_, false);
      }
    }
  }

  /// Takes back a frame handed out by Acquire: keeps it for reuse, or
  /// frees it when the free frames already take kMaxFreeBytes.
  void Put(std::unique_ptr<Page> frame) {
    frame->num_tuples_ = 0;
    const int capacity = frame->capacity_bytes_;
    const size_t bytes = FrameBytes(capacity);
    {
      std::lock_guard<std::mutex> lock(mu);
      --stats.live;
      if (free_bytes + bytes <= kMaxFreeBytes) {
        // Poisoned under the lock: once listed, another thread may take
        // the frame and unpoison it.
        SetPoisoned(frame->data_.get(), capacity, true);
        free_bytes += bytes;
        ++stats.free;
        free[capacity].push_back(std::move(frame));
        return;
      }
    }
    // Past the budget: `frame` is freed here, outside the lock.
  }
};

void FramePool::ReturnFrame::operator()(const Page* page) const {
  // The pool handed this frame out mutable; sealing only made it const.
  std::unique_ptr<Page> frame(const_cast<Page*>(page));
  if (std::shared_ptr<Shared> shared = pool.lock()) {
    shared->Put(std::move(frame));
  }
  // Otherwise the pool is gone and `frame` frees the page.
}

FramePool::FramePool() : shared_(std::make_shared<Shared>()) {}

FramePool::~FramePool() = default;

StatusOr<std::unique_ptr<Page>> FramePool::Acquire(RelationId relation,
                                                   int tuple_width,
                                                   int capacity_bytes) {
  if (tuple_width <= 0 || capacity_bytes < tuple_width) {
    return Page::Create(relation, tuple_width, capacity_bytes).status();
  }
  std::unique_ptr<Page> frame;
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    FramePoolStats& stats = shared_->stats;
    auto it = shared_->free.find(capacity_bytes);
    if (it != shared_->free.end() && !it->second.empty()) {
      frame = std::move(it->second.back());
      it->second.pop_back();
      shared_->free_bytes -= FrameBytes(capacity_bytes);
      --stats.free;
    } else {
      ++stats.created;
    }
    ++stats.live;
    stats.peak_live = std::max(stats.peak_live, stats.live);
  }
  if (frame == nullptr) {
    return std::make_unique<Page>(
        Page(relation, tuple_width, capacity_bytes));
  }
  SetPoisoned(frame->data_.get(), frame->capacity_bytes_, false);
  frame->relation_ = relation;
  frame->tuple_width_ = tuple_width;
  return frame;
}

PagePtr FramePool::Seal(std::unique_ptr<Page> frame) {
  return PagePtr(frame.release(), ReturnFrame{shared_});
}

void FramePool::Release(std::unique_ptr<Page> frame) {
  shared_->Put(std::move(frame));
}

FramePoolStats FramePool::stats() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->stats;
}

}  // namespace dfdb
