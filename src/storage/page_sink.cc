#include "storage/page_sink.h"

namespace dfdb {

Status PagePacker::EmitParts(const Slice* parts, size_t n) {
  PagePtr sealed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::FailedPrecondition("page packer is closed");
    if (open_ == nullptr) {
      DFDB_ASSIGN_OR_RETURN(Page page,
                            Page::Create(relation_, tuple_width_, unit_bytes_));
      open_ = std::make_unique<Page>(std::move(page));
    }
    DFDB_RETURN_IF_ERROR(open_->AppendParts(parts, n));
    ++tuples_emitted_;
    if (open_->full()) sealed = TakeOpenLocked();
  }
  if (sealed != nullptr) on_page_(std::move(sealed));
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
           (open_ == nullptr || open_->empty());
    if (pass) tuples_emitted_ += static_cast<uint64_t>(page->num_tuples());
  }
  if (pass) {
    on_page_(page);
    return Status::OK();
  }
  for (int i = 0; i < page->num_tuples(); ++i) {
    DFDB_RETURN_IF_ERROR(Emit(page->tuple(i)));
  }
  return Status::OK();
}

void PagePacker::Flush() {
  PagePtr sealed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sealed = TakeOpenLocked();
  }
  if (sealed != nullptr) on_page_(std::move(sealed));
}

Status PagePacker::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::FailedPrecondition("page packer is closed");
    closed_ = true;
  }
  Flush();  // No emit can reopen a page once closed_ is set.
  return Status::OK();
}

PagePtr PagePacker::TakeOpenLocked() {
  if (open_ == nullptr || open_->empty()) return nullptr;
  PagePtr sealed = SealPage(std::move(*open_));
  open_.reset();
  return sealed;
}

}  // namespace dfdb
