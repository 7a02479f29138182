/// \file aggregator.h
/// \brief Grouped aggregation over a page stream (extension operator).
///
/// The Aggregator here interprets every tuple through Values; it is the
/// semantic reference: ReferenceExecutor's path, and the oracle the tests
/// hold the engines' compiled program (compiled_aggregate.h) to.

#ifndef DFDB_OPERATORS_AGGREGATOR_H_
#define DFDB_OPERATORS_AGGREGATOR_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "operators/exact_sum.h"
#include "ra/plan.h"
#include "storage/page.h"
#include "storage/page_sink.h"
#include "storage/tuple.h"

namespace dfdb {

/// IEEE 754 totalOrder as a signed key: -NaN < -inf < ... < -0.0 < +0.0 <
/// ... < +inf < +NaN. Distinct bit patterns get distinct keys, so a DOUBLE
/// MIN/MAX keeps the same value whatever order its inputs arrive in.
inline int64_t DoubleTotalOrderKey(double d) {
  int64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits ^ ((bits >> 63) & std::numeric_limits<int64_t>::max());
}

/// \brief Accumulates grouped aggregates across pages, then emits one tuple
/// per group in group-key order (deterministic output).
///
/// The output bytes do not depend on the order the pages arrived in. SUM
/// over integers adds in uint64_t, so an overflowing sum wraps like two's
/// complement instead of being undefined. SUM over DOUBLE and AVG add into
/// an ExactSum. MIN/MAX over DOUBLE follow DoubleTotalOrderKey, so values
/// that compare equal but differ in bytes (-0.0 and 0.0, NaNs) never tie.
class Aggregator {
 public:
  /// \p input_schema and \p output_schema must be the analyzer-resolved
  /// schemas of the aggregate node's child and of the node itself.
  static StatusOr<Aggregator> Create(const Schema& input_schema,
                                     const Schema& output_schema,
                                     const std::vector<std::string>& group_by,
                                     std::vector<AggregateSpec> specs);

  /// Folds every tuple of \p page into the running groups.
  Status Consume(const Page& page);
  /// Emits one encoded output tuple per group. Afterwards the aggregator
  /// is reset and reusable.
  Status Finish(PageSink* out);
  size_t num_groups() const { return groups_.size(); }

 private:
  struct AggState {
    int64_t count = 0;
    /// SUM over DOUBLE and AVG only, allocated at the first value: it is
    /// 536 bytes.
    std::unique_ptr<ExactSum> sum_exact;
    /// SUM over INT32/INT64.
    uint64_t sum_int = 0;
    std::optional<Value> min;
    std::optional<Value> max;
  };
  struct GroupState {
    std::vector<Value> group_values;
    std::vector<AggState> aggs;
  };

  Aggregator(Schema input_schema, Schema output_schema,
             std::vector<int> group_indices, std::vector<AggregateSpec> specs,
             std::vector<int> agg_indices)
      : input_schema_(std::move(input_schema)),
        output_schema_(std::move(output_schema)),
        group_indices_(std::move(group_indices)),
        specs_(std::move(specs)),
        agg_indices_(std::move(agg_indices)) {}

  Schema input_schema_;
  Schema output_schema_;
  std::vector<int> group_indices_;
  std::vector<AggregateSpec> specs_;
  /// Input column index per spec (-1 for COUNT).
  std::vector<int> agg_indices_;
  /// Keyed by the encoded group-column bytes for deterministic ordering.
  std::map<std::string, GroupState> groups_;
};

}  // namespace dfdb

#endif  // DFDB_OPERATORS_AGGREGATOR_H_
