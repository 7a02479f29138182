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

/// \brief The tuples one worker emits during one kernel call, appended to a
/// buffer the worker owns. Emitting takes no lock: PagePacker::EmitRun
/// packs the whole run under the packer's lock once, so a kernel pays for
/// the shared packer once per call instead of once per tuple.
class TupleRun final : public PageSink {
 public:
  explicit TupleRun(int tuple_width = 1) : tuple_width_(tuple_width) {}

  /// Empties the run for tuples of \p tuple_width bytes; the buffer keeps
  /// its capacity.
  void Reset(int tuple_width) {
    tuple_width_ = tuple_width;
    bytes_.clear();
  }
  void Clear() { bytes_.clear(); }

  /// InvalidArgument unless the tuple is tuple_width() bytes.
  Status Emit(Slice tuple) override { return EmitParts(&tuple, 1); }
  Status EmitParts(const Slice* parts, size_t n) override;

  int tuple_width() const { return tuple_width_; }
  size_t num_tuples() const {
    return bytes_.size() / static_cast<size_t>(tuple_width_);
  }
  bool empty() const { return bytes_.empty(); }
  /// The tuples, packed back to back.
  Slice bytes() const { return Slice(bytes_); }

 private:
  int tuple_width_;
  std::string bytes_;
};

/// \brief The compressor of Section 4.2: "As pages (which may not be full)
/// arrive, they are compressed to form full pages."
///
/// Packs emitted tuples into pages of one unit and hands each sealed page
/// to a callback, outside the packer's lock. Every page the system
/// compresses goes through one: engine node outputs, pushdown survivors,
/// the simulator's IP result buffers and IC operand repacks, and the
/// reference executor's intermediates. One page is open at a time and
/// pages seal in emit order, whether tuples arrive one by one or as runs.
///
/// Thread-safe: parallel tasks of one instruction may emit concurrently.
class PagePacker final : public PageSink {
 public:
  using SealFn = std::function<void(PagePtr)>;

  /// Pages are tagged \p relation and hold tuples of \p tuple_width bytes in
  /// \p unit_bytes of payload, raised to one tuple when smaller.
  PagePacker(RelationId relation, int tuple_width, int unit_bytes,
             SealFn on_page)
      : relation_(relation),
        tuple_width_(tuple_width),
        unit_bytes_(unit_bytes < tuple_width ? tuple_width : unit_bytes),
        on_page_(std::move(on_page)) {}

  DFDB_DISALLOW_COPY(PagePacker);

  int tuple_width() const { return tuple_width_; }

  Status Emit(Slice tuple) override { return EmitParts(&tuple, 1); }
  Status EmitParts(const Slice* parts, size_t n) override;

  /// Packs every tuple of \p run, in order, under one lock: one copy per
  /// unit-sized chunk. It seals exactly the pages emitting the tuples one by
  /// one would, and the run's tuples stay contiguous among concurrent
  /// emitters. InvalidArgument when its tuple width differs.
  Status EmitRun(const TupleRun& run);

  /// Adds a whole page. A full page of exactly the unit passes through
  /// unchanged when no page is open (base pages stay intact under page
  /// granularity); any other page is packed tuple by tuple.
  /// InvalidArgument when its tuple width differs.
  Status EmitPage(const PagePtr& page);

  /// Seals the open page, if any (end of an operand, or of a processor's
  /// turn at an instruction).
  void Flush();

  /// Flush(), then refuses every later emit with FailedPrecondition.
  /// The producer calls it once, when its last task retires.
  Status Close();

  uint64_t tuples_emitted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tuples_emitted_;
  }

 private:
  /// Opens an empty page of the unit unless one is open.
  Status OpenLocked();
  /// Detaches the open page for sealing, which happens outside the lock;
  /// null when none holds a tuple.
  std::unique_ptr<Page> TakeOpenLocked();

  const RelationId relation_;
  const int tuple_width_;
  const int unit_bytes_;
  const SealFn on_page_;

  mutable std::mutex mu_;
  std::unique_ptr<Page> open_;
  uint64_t tuples_emitted_ = 0;
  bool closed_ = false;
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
