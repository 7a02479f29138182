/// \file page_sink.h
/// \brief Where page-at-a-time kernels emit tuples, and the one compressor
/// that packs emitted tuples into pages.

#ifndef DFDB_STORAGE_PAGE_SINK_H_
#define DFDB_STORAGE_PAGE_SINK_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"
#include "storage/frame_pool.h"
#include "storage/page.h"

namespace dfdb {

/// \brief Consumer of encoded result tuples.
class PageSink {
 public:
  virtual ~PageSink() = default;
  /// Accepts one encoded tuple of the sink's schema width.
  virtual Status Emit(Slice tuple) = 0;

  /// Accepts one tuple given as \p n byte ranges (join: outer ++ inner;
  /// project: column runs of the source tuple), so kernels never
  /// materialize an intermediate tuple.
  virtual Status EmitParts(const Slice* parts, size_t n) = 0;
};

/// \brief The compressor of Section 4.2: "As pages (which may not be full)
/// arrive, they are compressed to form full pages."
///
/// Packs emitted tuples into pages of one unit and hands each sealed page
/// to a callback, outside the packer's lock. Every page the system
/// compresses goes through one: engine node outputs, pushdown survivors,
/// the simulator's IP result buffers and IC operand repacks, and the
/// reference executor's intermediates.
///
/// Tuples are written once, straight into a page frame. A task that runs a
/// kernel checks out a Writer, which owns one open frame: the packer's free
/// partial page when it has one, else a fresh frame. The kernel writes into
/// it without a lock; a full frame is sealed by its writer and delivered
/// after the kernel call, and check-in hands the partial frame back. So the
/// packer's lock guards only a partial-page pop or push. The per-tuple
/// Emit/EmitParts and EmitPage work on the same free partial pages, and
/// Flush()/Close() compress those into full pages. There is at most one
/// partial page per writer out at once; with one writer at a time the
/// packer seals exactly the pages emitting every tuple in order would.
///
/// Frames come from a FramePool, and sealed pages return them to it.
///
/// Thread-safe: parallel tasks of one instruction may emit concurrently.
class PagePacker final : public PageSink {
 public:
  using SealFn = std::function<void(PagePtr)>;
  class Writer;

  /// Pages are tagged \p relation and hold tuples of \p tuple_width bytes in
  /// \p unit_bytes of payload, raised to one tuple when smaller. Their
  /// frames come from \p frames, which must outlive the packer.
  PagePacker(RelationId relation, int tuple_width, int unit_bytes,
             SealFn on_page, FramePool& frames)
      : relation_(relation),
        tuple_width_(tuple_width),
        unit_bytes_(unit_bytes < tuple_width ? tuple_width : unit_bytes),
        on_page_(std::move(on_page)),
        frames_(frames) {}

  DFDB_DISALLOW_COPY(PagePacker);

  int tuple_width() const { return tuple_width_; }

  Status Emit(Slice tuple) override { return EmitParts(&tuple, 1); }
  Status EmitParts(const Slice* parts, size_t n) override;

  /// Checks \p writer out to this packer, handing it the free partial page
  /// if there is one. FailedPrecondition when the packer is closed or the
  /// writer is already checked out.
  Status CheckOut(Writer* writer);

  /// Adds a whole page. A full page of exactly the unit passes through
  /// unchanged when no partial page is free (base pages stay intact under
  /// page granularity); any other page is copied in runs, each filling
  /// the last free partial page or a fresh frame, into the pages that
  /// emitting its tuples one by one would seal. InvalidArgument when its
  /// tuple width differs.
  Status EmitPage(const PagePtr& page);

  /// Compresses the free partial pages into full pages and seals them all,
  /// the last one possibly partial (end of an operand, or of a processor's
  /// turn at an instruction). Frames of writers still out are theirs.
  void Flush();

  /// Flush(), then refuses every later emit and check-out with
  /// FailedPrecondition. The producer calls it once, when its last task
  /// retires; FailedPrecondition while a writer is still out.
  Status Close();

  /// Tuples taken so far; a writer's count once it checks in.
  uint64_t tuples_emitted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tuples_emitted_;
  }

 private:
  /// An empty frame of the unit.
  StatusOr<std::unique_ptr<Page>> NewFrame() {
    return frames_.Acquire(relation_, tuple_width_, unit_bytes_);
  }

  const RelationId relation_;
  const int tuple_width_;
  const int unit_bytes_;
  const SealFn on_page_;
  FramePool& frames_;

  mutable std::mutex mu_;
  /// Free partial pages, each holding at least one tuple and not full. The
  /// last one takes the next per-tuple emit or check-out.
  std::vector<std::unique_ptr<Page>> partial_;
  int writers_out_ = 0;
  uint64_t tuples_emitted_ = 0;
  bool closed_ = false;
};

/// \brief One task's turn at a packer: a PageSink that writes each tuple
/// straight into the frame it owns, with no lock.
///
/// A writer is reusable: check it out, run kernels into it, deliver, check
/// it in, and check it out again, to the same packer or another. Its
/// buffers keep their capacity across turns.
class PagePacker::Writer final : public PageSink {
 public:
  Writer() = default;
  /// A writer must be checked in before it is destroyed.
  ~Writer();
  DFDB_DISALLOW_COPY(Writer);

  /// InvalidArgument unless the tuple is the packer's width;
  /// FailedPrecondition when not checked out.
  Status Emit(Slice tuple) override { return EmitParts(&tuple, 1); }
  Status EmitParts(const Slice* parts, size_t n) override;

  /// Hands the frames this writer filled to the packer's callback, in the
  /// order they filled. Each tuple continues the open frame; a full frame
  /// waits here, and the next tuple starts a fresh frame at slot 0.
  void Deliver();

  /// Deliver(), then hands the open frame back to the packer as a free
  /// partial page and ends the turn. A no-op when not checked out.
  void CheckIn();

  bool checked_out() const { return packer_ != nullptr; }
  /// Tuples written since check-out.
  uint64_t tuples_written() const { return written_; }

 private:
  friend class PagePacker;

  PagePacker* packer_ = nullptr;
  std::unique_ptr<Page> open_;
  std::vector<std::unique_ptr<Page>> full_;
  uint64_t written_ = 0;
};

/// \brief PageSink that simply collects encoded tuples (for tests).
class VectorSink final : public PageSink {
 public:
  Status Emit(Slice tuple) override {
    tuples_.push_back(tuple.ToString());
    return Status::OK();
  }
  Status EmitParts(const Slice* parts, size_t n) override {
    std::string& t = tuples_.emplace_back();
    for (size_t i = 0; i < n; ++i) t.append(parts[i].data(), parts[i].size());
    return Status::OK();
  }
  const std::vector<std::string>& tuples() const { return tuples_; }

 private:
  std::vector<std::string> tuples_;
};

}  // namespace dfdb

#endif  // DFDB_STORAGE_PAGE_SINK_H_
