#include "storage/page_sink.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace dfdb {

namespace {

Status CheckWidth(const Slice* parts, size_t n, int tuple_width) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) total += parts[i].size();
  if (total != static_cast<size_t>(tuple_width)) {
    return Status::InvalidArgument(
        StrFormat("tuple parts sum to %zu bytes, packer expects %d", total,
                  tuple_width));
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// PagePacker
// ---------------------------------------------------------------------------

Status PagePacker::EmitParts(const Slice* parts, size_t n) {
  DFDB_RETURN_IF_ERROR(CheckWidth(parts, n, tuple_width_));
  std::unique_ptr<Page> sealed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::FailedPrecondition("page packer is closed");
    if (partial_.empty()) {
      DFDB_ASSIGN_OR_RETURN(std::unique_ptr<Page> frame, NewFrame());
      partial_.push_back(std::move(frame));
    }
    Page* page = partial_.back().get();
    DFDB_RETURN_IF_ERROR(page->AppendParts(parts, n));
    ++tuples_emitted_;
    if (page->full()) {
      sealed = std::move(partial_.back());
      partial_.pop_back();
    }
  }
  if (sealed != nullptr) on_page_(frames_.Seal(std::move(sealed)));
  return Status::OK();
}

Status PagePacker::CheckOut(Writer* writer) {
  if (writer->checked_out()) {
    return Status::FailedPrecondition("writer is already checked out");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return Status::FailedPrecondition("page packer is closed");
  ++writers_out_;
  if (!partial_.empty()) {
    writer->open_ = std::move(partial_.back());
    partial_.pop_back();
  }
  writer->packer_ = this;
  return Status::OK();
}

Status PagePacker::EmitPage(const PagePtr& page) {
  if (page->tuple_width() != tuple_width_) {
    return Status::InvalidArgument("page tuple width does not match packer");
  }
  bool pass = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::FailedPrecondition("page packer is closed");
    pass = page->full() && page->capacity_bytes() == unit_bytes_ &&
           partial_.empty();
    if (pass) tuples_emitted_ += static_cast<uint64_t>(page->num_tuples());
  }
  if (pass) {
    on_page_(page);
    return Status::OK();
  }
  // Otherwise the tuples go in runs, one lock and one copy per frame: each
  // run fills the last free partial page, or a fresh frame, as emitting
  // them one by one would.
  const int n = page->num_tuples();
  for (int next = 0; next < n;) {
    std::unique_ptr<Page> sealed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return Status::FailedPrecondition("page packer is closed");
      if (partial_.empty()) {
        DFDB_ASSIGN_OR_RETURN(std::unique_ptr<Page> frame, NewFrame());
        partial_.push_back(std::move(frame));
      }
      Page* open = partial_.back().get();
      const int take =
          std::min(n - next, open->capacity_tuples() - open->num_tuples());
      DFDB_RETURN_IF_ERROR(open->AppendRun(
          Slice(page->tuple(next).data(),
                static_cast<size_t>(take) * static_cast<size_t>(tuple_width_))));
      next += take;
      tuples_emitted_ += static_cast<uint64_t>(take);
      if (open->full()) {
        sealed = std::move(partial_.back());
        partial_.pop_back();
      }
    }
    if (sealed != nullptr) on_page_(frames_.Seal(std::move(sealed)));
  }
  return Status::OK();
}

void PagePacker::Flush() {
  std::vector<std::unique_ptr<Page>> partials;
  {
    std::lock_guard<std::mutex> lock(mu_);
    partials.swap(partial_);
  }
  if (partials.empty()) return;
  // Concurrent writers leave one partial page each: copy the others' tuples
  // behind the first one's, so every sealed page but the last is full.
  const size_t width = static_cast<size_t>(tuple_width_);
  std::vector<std::unique_ptr<Page>> sealed;
  std::unique_ptr<Page> open = std::move(partials.front());
  for (size_t i = 1; i < partials.size(); ++i) {
    const Page& from = *partials[i];
    int next = 0;
    while (next < from.num_tuples()) {
      if (open->full()) {
        sealed.push_back(std::move(open));
        auto frame = NewFrame();
        DFDB_CHECK(frame.ok()) << frame.status();
        open = *std::move(frame);
      }
      const int take = std::min(from.num_tuples() - next,
                                open->capacity_tuples() - open->num_tuples());
      DFDB_CHECK_OK(open->AppendRun(
          Slice(from.tuple(next).data(), static_cast<size_t>(take) * width)));
      next += take;
    }
    frames_.Release(std::move(partials[i]));
  }
  sealed.push_back(std::move(open));
  for (std::unique_ptr<Page>& page : sealed) {
    on_page_(frames_.Seal(std::move(page)));
  }
}

Status PagePacker::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::FailedPrecondition("page packer is closed");
    if (writers_out_ > 0) {
      return Status::FailedPrecondition(
          "page packer closed while a writer is checked out");
    }
    closed_ = true;
  }
  Flush();  // No emit or check-out can add a partial page once closed_ is set.
  return Status::OK();
}

// ---------------------------------------------------------------------------
// PagePacker::Writer
// ---------------------------------------------------------------------------

PagePacker::Writer::~Writer() {
  DFDB_CHECK(!checked_out()) << "page writer destroyed while checked out";
}

Status PagePacker::Writer::EmitParts(const Slice* parts, size_t n) {
  if (packer_ == nullptr) {
    return Status::FailedPrecondition("page writer is not checked out");
  }
  if (open_ == nullptr) {
    DFDB_ASSIGN_OR_RETURN(open_, packer_->NewFrame());
  }
  DFDB_RETURN_IF_ERROR(open_->AppendParts(parts, n));
  ++written_;
  if (open_->full()) full_.push_back(std::move(open_));
  return Status::OK();
}

void PagePacker::Writer::Deliver() {
  for (std::unique_ptr<Page>& frame : full_) {
    packer_->on_page_(packer_->frames_.Seal(std::move(frame)));
  }
  full_.clear();
}

void PagePacker::Writer::CheckIn() {
  if (packer_ == nullptr) return;
  Deliver();
  PagePacker* packer = std::exchange(packer_, nullptr);
  std::unique_ptr<Page> open = std::move(open_);
  if (open != nullptr && open->empty()) {
    packer->frames_.Release(std::move(open));
  }
  std::lock_guard<std::mutex> lock(packer->mu_);
  packer->tuples_emitted_ += std::exchange(written_, 0);
  --packer->writers_out_;
  if (open != nullptr) packer->partial_.push_back(std::move(open));
}

}  // namespace dfdb
