/// \file dedup.h
/// \brief Duplicate elimination state for the full `project` operator.
///
/// The paper leaves a parallel project algorithm as future work
/// (Section 5.0). We implement the sequential core here and the
/// partitioned-parallel variant in NodeProgram (operators/node_program.h):
/// tuples are hash-partitioned by content, so each partition's eliminator
/// never sees another partition's duplicates and partitions dedup
/// independently in parallel — as shards under concurrent engine tasks,
/// and as one partition per simulated IP in the parallel project.

#ifndef DFDB_OPERATORS_DEDUP_H_
#define DFDB_OPERATORS_DEDUP_H_

#include <string>
#include <unordered_set>

#include "common/hash.h"
#include "common/slice.h"

namespace dfdb {

/// \brief Remembers every tuple seen (by content) and reports duplicates.
class DuplicateEliminator {
 public:
  /// Returns true the first time this exact byte string is seen.
  bool Insert(Slice tuple) {
    return seen_.insert(tuple.ToString()).second;
  }

  bool Contains(Slice tuple) const {
    return seen_.count(tuple.ToString()) > 0;
  }

  size_t size() const { return seen_.size(); }
  void Clear() { seen_.clear(); }

 private:
  std::unordered_set<std::string> seen_;
};

/// \brief Stable partition assignment for parallel duplicate elimination:
/// equal tuples always land in the same partition.
inline int DedupPartition(Slice tuple, int num_partitions) {
  return static_cast<int>(Hash64(tuple) % static_cast<uint64_t>(num_partitions));
}

}  // namespace dfdb

#endif  // DFDB_OPERATORS_DEDUP_H_
