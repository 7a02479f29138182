/// \file page.h
/// \brief Fixed-size pages of fixed-width tuples.
///
/// A page is the paper's unit of data-flow scheduling: "a page of a relation
/// (containing a set of tuples) is used for scheduling decisions"
/// (Section 3.2). Tuples are fixed width (see catalog/types.h), so a page is
/// a small header plus a packed tuple array.

#ifndef DFDB_STORAGE_PAGE_H_
#define DFDB_STORAGE_PAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/statusor.h"

namespace dfdb {

/// Globally unique page identifier (monotonic, assigned by PageStore).
using PageId = uint64_t;
constexpr PageId kInvalidPageId = 0;

/// \brief A page: header plus packed fixed-width tuples.
///
/// Pages are immutable once sealed; the engine shares them between operators
/// via shared_ptr<const Page>. `capacity_bytes` is the payload budget — the
/// paper's "page size" (1,000 / 10,000 / 16 K bytes in its examples).
class Page {
 public:
  /// Creates an empty page for tuples of \p tuple_width bytes.
  /// InvalidArgument if the page cannot hold even one tuple.
  static StatusOr<Page> Create(RelationId relation, int tuple_width,
                               int capacity_bytes);

  RelationId relation() const { return relation_; }

  int tuple_width() const { return tuple_width_; }
  int capacity_bytes() const { return capacity_bytes_; }

  /// Maximum number of tuples this page can hold.
  int capacity_tuples() const { return capacity_bytes_ / tuple_width_; }
  int num_tuples() const { return num_tuples_; }
  bool empty() const { return num_tuples_ == 0; }
  bool full() const { return num_tuples_ >= capacity_tuples(); }

  /// Bytes of tuple payload currently stored.
  int payload_bytes() const { return num_tuples_ * tuple_width_; }

  /// Appends one encoded tuple (must be exactly tuple_width() bytes).
  /// ResourceExhausted when full.
  Status Append(Slice tuple);

  /// Appends one tuple given as \p n byte ranges whose sizes must sum to
  /// tuple_width(). The kernels' scatter/gather emission path: join and
  /// project outputs are assembled directly into the page, with no
  /// intermediate tuple buffer.
  Status AppendParts(const Slice* parts, size_t n);

  /// Appends the tuples packed back to back in \p tuples (a whole number of
  /// tuple_width() records) with one copy. ResourceExhausted when they do
  /// not all fit.
  Status AppendRun(Slice tuples);

  /// Borrowed view of tuple \p i; valid while the page is alive.
  Slice tuple(int i) const {
    return Slice(data_.data() + static_cast<size_t>(i) * tuple_width_,
                 static_cast<size_t>(tuple_width_));
  }

  /// Serializes header + payload (for packet round-trip and persistence
  /// tests).
  std::string Serialize() const;

  /// Inverse of Serialize(); Corruption on malformed input.
  static StatusOr<Page> Deserialize(Slice bytes);

 private:
  Page(RelationId relation, int tuple_width, int capacity_bytes)
      : relation_(relation),
        tuple_width_(tuple_width),
        capacity_bytes_(capacity_bytes) {
    data_.reserve(static_cast<size_t>(capacity_bytes));
  }

  RelationId relation_;
  int tuple_width_;
  int capacity_bytes_;
  int num_tuples_ = 0;
  std::vector<char> data_;
};

using PagePtr = std::shared_ptr<const Page>;

/// Convenience: wraps a finished page for sharing.
inline PagePtr SealPage(Page&& page) {
  return std::make_shared<const Page>(std::move(page));
}

}  // namespace dfdb

#endif  // DFDB_STORAGE_PAGE_H_
