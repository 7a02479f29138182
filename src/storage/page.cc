#include "storage/page.h"

#include <cstring>

#include "common/string_util.h"

namespace dfdb {

namespace {
// Serialized header: relation(4) tuple_width(4) capacity(4) count(4).
constexpr size_t kHeaderBytes = 16;

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
}  // namespace

StatusOr<Page> Page::Create(RelationId relation, int tuple_width,
                            int capacity_bytes) {
  if (tuple_width <= 0) {
    return Status::InvalidArgument(
        StrFormat("tuple width must be positive, got %d", tuple_width));
  }
  if (capacity_bytes < tuple_width) {
    return Status::InvalidArgument(
        StrFormat("page capacity %d bytes cannot hold a %d-byte tuple",
                  capacity_bytes, tuple_width));
  }
  return Page(relation, tuple_width, capacity_bytes);
}

Status Page::Append(Slice tuple) {
  if (static_cast<int>(tuple.size()) != tuple_width_) {
    return Status::InvalidArgument(
        StrFormat("tuple is %zu bytes, page expects %d", tuple.size(),
                  tuple_width_));
  }
  if (full()) {
    return Status::ResourceExhausted("page is full");
  }
  data_.insert(data_.end(), tuple.data(), tuple.data() + tuple.size());
  ++num_tuples_;
  return Status::OK();
}

Status Page::AppendParts(const Slice* parts, size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) total += parts[i].size();
  if (static_cast<int>(total) != tuple_width_) {
    return Status::InvalidArgument(
        StrFormat("tuple parts sum to %zu bytes, page expects %d", total,
                  tuple_width_));
  }
  if (full()) {
    return Status::ResourceExhausted("page is full");
  }
  for (size_t i = 0; i < n; ++i) {
    data_.insert(data_.end(), parts[i].data(), parts[i].data() + parts[i].size());
  }
  ++num_tuples_;
  return Status::OK();
}

Status Page::AppendRun(Slice tuples) {
  const size_t width = static_cast<size_t>(tuple_width_);
  if (tuples.size() % width != 0) {
    return Status::InvalidArgument(
        StrFormat("run of %zu bytes is not a whole number of %d-byte tuples",
                  tuples.size(), tuple_width_));
  }
  const int n = static_cast<int>(tuples.size() / width);
  if (n > capacity_tuples() - num_tuples_) {
    return Status::ResourceExhausted("page is full");
  }
  data_.insert(data_.end(), tuples.data(), tuples.data() + tuples.size());
  num_tuples_ += n;
  return Status::OK();
}

std::string Page::Serialize() const {
  std::string out;
  out.reserve(kHeaderBytes + data_.size());
  PutU32(&out, relation_);
  PutU32(&out, static_cast<uint32_t>(tuple_width_));
  PutU32(&out, static_cast<uint32_t>(capacity_bytes_));
  PutU32(&out, static_cast<uint32_t>(num_tuples_));
  out.append(data_.data(), data_.size());
  return out;
}

StatusOr<Page> Page::Deserialize(Slice bytes) {
  if (bytes.size() < kHeaderBytes) {
    return Status::Corruption("page too short for header");
  }
  const RelationId relation = GetU32(bytes.data());
  const int tuple_width = static_cast<int>(GetU32(bytes.data() + 4));
  const int capacity = static_cast<int>(GetU32(bytes.data() + 8));
  const int count = static_cast<int>(GetU32(bytes.data() + 12));
  auto page = Create(relation, tuple_width, capacity);
  if (!page.ok()) {
    return Status::Corruption("bad page header: " +
                              std::string(page.status().message()));
  }
  const size_t payload = static_cast<size_t>(count) * tuple_width;
  if (count < 0 || count > page->capacity_tuples() ||
      bytes.size() != kHeaderBytes + payload) {
    return Status::Corruption("page payload size mismatch");
  }
  for (int i = 0; i < count; ++i) {
    Status s = page->Append(
        Slice(bytes.data() + kHeaderBytes + static_cast<size_t>(i) * tuple_width,
              static_cast<size_t>(tuple_width)));
    if (!s.ok()) return s;
  }
  return *std::move(page);
}

}  // namespace dfdb
