/// \file compiled_aggregate.h
/// \brief The aggregate operator compiled into a typed group-by page kernel.
///
/// The interpreted Aggregator pays, per tuple, a std::string group key, a
/// std::map walk, and a Value plus StatusOr per aggregated column. That
/// undoes the page-granularity amortization the paper argues for (Section
/// 3.3), just as Expr::Eval did for predicates (see expr_compile.h).
/// CompiledAggregate resolves every column offset and type once per
/// aggregate node, then runs each page in two tight passes: one maps every
/// tuple's raw group-column bytes to a group through a flat open-addressing
/// table, one per aggregate folds the typed column values into per-group
/// accumulators.
///
/// The output is byte-identical to the Aggregator's: groups are emitted in
/// the byte order of their key (the std::map order), MIN/MAX compare
/// integers numerically, DOUBLEs by DoubleTotalOrderKey (so -0.0 < 0.0
/// and NaNs order by sign and payload) and CHARs by their right-trimmed
/// bytes (Value::Compare's order), SUM over integers wraps in uint64_t,
/// and SUM over DOUBLE and AVG share the Aggregator's ExactSum. Both
/// engines run every aggregate node through it; operators_test fuzzes it
/// against the Aggregator, which stays as ReferenceExecutor's oracle.

#ifndef DFDB_OPERATORS_COMPILED_AGGREGATE_H_
#define DFDB_OPERATORS_COMPILED_AGGREGATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "operators/exact_sum.h"
#include "ra/plan.h"
#include "storage/page.h"
#include "storage/page_sink.h"

namespace dfdb {

/// \brief Grouped aggregation over raw tuple bytes: COUNT, SUM and AVG
/// over INT32/INT64/DOUBLE columns, and MIN and MAX over columns of any
/// type, grouped by columns of any type. Consume() every input page, in
/// any order, then Finish() once.
class CompiledAggregate {
 public:
  /// Builds the program for an aggregate node. Returns InvalidArgument for
  /// schemas the analyzer would not produce.
  static StatusOr<CompiledAggregate> Compile(
      const Schema& input_schema, const Schema& output_schema,
      const std::vector<std::string>& group_by,
      const std::vector<AggregateSpec>& specs);

  /// Folds every tuple of \p page into the running groups. Never fails:
  /// every error path was rejected by Compile().
  Status Consume(const Page& page);
  /// Emits one encoded output tuple per group. Afterwards the program is
  /// reset and reusable.
  Status Finish(PageSink* out);
  size_t num_groups() const { return num_groups_; }

 private:
  /// One aggregate, types resolved at compile time.
  struct Step {
    enum class Kind : uint8_t {
      kCount,
      kSumI32, kSumI64,                  // Wrapping uint64_t word.
      kSumF64,                           // ExactSum.
      kAvgI32, kAvgI64, kAvgF64,         // ExactSum of the values as doubles.
      kMinI32, kMaxI32, kMinI64, kMaxI64,  // int64_t word.
      kMinF64, kMaxF64,                  // double word.
      kMinChar, kMaxChar,                // The winner's raw column bytes.
    };
    Kind kind = Kind::kCount;
    int32_t in_offset = 0;   ///< Input column byte offset.
    int32_t out_offset = 0;  ///< Output column byte offset.
    /// Index into the group's words (after the count) or its ExactSums;
    /// for CHAR, the byte offset into the group's chars.
    int32_t slot = 0;
    int32_t width = 0;  ///< CHAR column width.
  };
  /// One group column's bytes in the input tuple.
  struct KeyPart {
    int32_t offset = 0;
    int32_t width = 0;
  };

  CompiledAggregate() = default;

  /// Sets group_ids_[t] for every tuple of the page at \p base, adding
  /// groups as they appear. kWidth is 4 for a key of 4 contiguous bytes
  /// (one INT32 column), 0 for any other key.
  template <int kWidth>
  void AssignGroups(const char* base, int n);
  template <int kWidth>
  uint32_t FindOrAdd(const char* key, const char* tuple);
  /// Gathers the group columns of \p tuple into key_buf_ unless they are
  /// already contiguous.
  const char* KeyOf(const char* tuple);
  uint32_t AddGroup(const char* key, const char* tuple, size_t slot);
  void Rehash(size_t slots);
  size_t SlotOf(uint64_t hash) const { return hash >> slot_shift_; }

  int tuple_width_ = 0;
  int out_width_ = 0;
  std::vector<KeyPart> key_parts_;
  int key_width_ = 0;
  /// Offset of the key when its parts are adjacent in input order, else -1.
  int contiguous_key_offset_ = -1;
  std::vector<Step> steps_;
  /// Per group: the count, then one word per word-kind step.
  int words_per_group_ = 1;
  int sums_per_group_ = 0;
  int chars_per_group_ = 0;

  // Running state, cleared by Finish().
  size_t num_groups_ = 0;
  std::vector<char> keys_;       ///< Group g's key at g * key_width_.
  std::vector<uint64_t> words_;  ///< Group g's words at g * words_per_group_.
  std::vector<ExactSum> sums_;   ///< Group g's sums at g * sums_per_group_.
  std::vector<char> chars_;      ///< Group g's chars at g * chars_per_group_.
  std::vector<uint32_t> slots_;  ///< Group + 1; 0 is empty.
  int slot_shift_ = 64;
  std::vector<uint32_t> group_ids_;  ///< Per tuple of the current page.
  std::string key_buf_;
};

}  // namespace dfdb

#endif  // DFDB_OPERATORS_COMPILED_AGGREGATE_H_
