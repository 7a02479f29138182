#include "storage/page_sink.h"

#include <algorithm>

#include "common/string_util.h"

namespace dfdb {

Status TupleRun::EmitParts(const Slice* parts, size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) total += parts[i].size();
  if (total != static_cast<size_t>(tuple_width_)) {
    return Status::InvalidArgument(
        StrFormat("tuple parts sum to %zu bytes, run expects %d", total,
                  tuple_width_));
  }
  for (size_t i = 0; i < n; ++i) {
    bytes_.append(parts[i].data(), parts[i].size());
  }
  return Status::OK();
}

Status PagePacker::EmitParts(const Slice* parts, size_t n) {
  std::unique_ptr<Page> sealed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::FailedPrecondition("page packer is closed");
    DFDB_RETURN_IF_ERROR(OpenLocked());
    DFDB_RETURN_IF_ERROR(open_->AppendParts(parts, n));
    ++tuples_emitted_;
    if (open_->full()) sealed = TakeOpenLocked();
  }
  if (sealed != nullptr) on_page_(PagePtr(std::move(sealed)));
  return Status::OK();
}

Status PagePacker::EmitRun(const TupleRun& run) {
  if (run.tuple_width() != tuple_width_) {
    return Status::InvalidArgument("run tuple width does not match packer");
  }
  const size_t width = static_cast<size_t>(tuple_width_);
  Slice rest = run.bytes();
  std::vector<std::unique_ptr<Page>> sealed;
  Status s = Status::OK();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::FailedPrecondition("page packer is closed");
    while (rest.size() >= width) {
      s = OpenLocked();
      if (!s.ok()) break;
      const size_t room =
          static_cast<size_t>(open_->capacity_tuples() - open_->num_tuples());
      const size_t take = std::min(rest.size() / width, room);
      s = open_->AppendRun(Slice(rest.data(), take * width));
      if (!s.ok()) break;
      rest.remove_prefix(take * width);
      tuples_emitted_ += take;
      if (open_->full()) sealed.push_back(TakeOpenLocked());
    }
  }
  for (std::unique_ptr<Page>& page : sealed) {
    on_page_(PagePtr(std::move(page)));
  }
  return s;
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
  std::unique_ptr<Page> sealed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sealed = TakeOpenLocked();
  }
  if (sealed != nullptr) on_page_(PagePtr(std::move(sealed)));
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

Status PagePacker::OpenLocked() {
  if (open_ != nullptr) return Status::OK();
  DFDB_ASSIGN_OR_RETURN(Page page,
                        Page::Create(relation_, tuple_width_, unit_bytes_));
  open_ = std::make_unique<Page>(std::move(page));
  return Status::OK();
}

std::unique_ptr<Page> PagePacker::TakeOpenLocked() {
  if (open_ == nullptr || open_->empty()) return nullptr;
  return std::move(open_);
}

}  // namespace dfdb
