/// \file set_ops.h
/// \brief Stateful union / difference operators over page streams.

#ifndef DFDB_OPERATORS_SET_OPS_H_
#define DFDB_OPERATORS_SET_OPS_H_

#include "operators/dedup.h"
#include "storage/page.h"
#include "storage/page_sink.h"

#include "common/macros.h"

namespace dfdb {

/// \brief Set (or bag) union: streams both inputs, deduplicating when set
/// semantics are requested. Inputs may interleave freely — union is fully
/// pipelineable, which the page-dataflow engine exploits.
class UnionOp {
 public:
  explicit UnionOp(bool bag_semantics) : bag_(bag_semantics) {}

  Status Consume(const Page& page, PageSink* out) {
    for (int i = 0; i < page.num_tuples(); ++i) {
      if (bag_ || seen_.Insert(page.tuple(i))) {
        DFDB_RETURN_IF_ERROR(out->Emit(page.tuple(i)));
      }
    }
    return Status::OK();
  }

 private:
  bool bag_;
  DuplicateEliminator seen_;
};

/// \brief Set difference left \ right. The right side must be consumed
/// completely before any left page (a pipeline barrier on one input —
/// exactly the situation where relation-level granularity loses least).
class DifferenceOp {
 public:
  /// Feeds one page of the right (subtrahend) input.
  void ConsumeRight(const Page& page) {
    for (int i = 0; i < page.num_tuples(); ++i) {
      right_.Insert(page.tuple(i));
    }
  }

  /// Streams one page of the left input, emitting tuples not present in the
  /// right set. Output is deduplicated (set semantics).
  Status ConsumeLeft(const Page& page, PageSink* out) {
    for (int i = 0; i < page.num_tuples(); ++i) {
      if (!right_.Contains(page.tuple(i)) && emitted_.Insert(page.tuple(i))) {
        DFDB_RETURN_IF_ERROR(out->Emit(page.tuple(i)));
      }
    }
    return Status::OK();
  }

 private:
  DuplicateEliminator right_;
  DuplicateEliminator emitted_;
};

}  // namespace dfdb

#endif  // DFDB_OPERATORS_SET_OPS_H_
