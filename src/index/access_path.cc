#include "index/access_path.h"

#include <cmath>
#include <unordered_set>

#include "index/index_manager.h"

namespace dfdb {
namespace {

using expr_detail::Cmp3F;
using expr_detail::Cmp3I;
using expr_detail::Cmp3S;

/// May any value in [cmin, cmax] (three-way compares of the column's min
/// and max against the constant) satisfy \p op?
bool RangeMayMatch(CompareOp op, int cmin, int cmax) {
  switch (op) {
    case CompareOp::kEq:
      return cmin <= 0 && cmax >= 0;
    case CompareOp::kNe:
      // Only a page whose every value equals the constant fails `!=`.
      return !(cmin == 0 && cmax == 0);
    case CompareOp::kLt:
      return cmin < 0;
    case CompareOp::kLe:
      return cmin <= 0;
    case CompareOp::kGt:
      return cmax > 0;
    case CompareOp::kGe:
      return cmax >= 0;
  }
  return true;
}

}  // namespace

bool ZoneMapMayMatch(const ZoneMapEntry& entry, const Schema& schema,
                     const std::vector<ColCompare>& bounds) {
  if (entry.tuples == 0) return false;
  for (const ColCompare& c : bounds) {
    // Bounds carry byte offsets (pre-resolved by the predicate compiler);
    // find the column summary at that offset.
    int col = -1;
    for (int i = 0; i < schema.num_columns(); ++i) {
      if (schema.offset(i) == c.offset) {
        col = i;
        break;
      }
    }
    if (col < 0 || static_cast<size_t>(col) >= entry.cols.size()) continue;
    const ZoneMapColumn& zc = entry.cols[static_cast<size_t>(col)];
    if (!zc.valid) continue;
    int cmin = 0, cmax = 0;
    switch (c.kind) {
      case ColCompare::Kind::kI32I:
      case ColCompare::Kind::kI64I:
        if (schema.column(col).type == ColumnType::kChar ||
            schema.column(col).type == ColumnType::kDouble) {
          continue;  // Offset collision with a non-int column: no pruning.
        }
        cmin = Cmp3I(zc.min_i, c.const_i);
        cmax = Cmp3I(zc.max_i, c.const_i);
        break;
      case ColCompare::Kind::kI32F:
      case ColCompare::Kind::kI64F:
        if (schema.column(col).type == ColumnType::kChar ||
            schema.column(col).type == ColumnType::kDouble) {
          continue;
        }
        // The kernels compare double(v) vs const_f; int64 -> double is
        // monotone, so [double(min), double(max)] brackets every
        // double(v). A NaN constant yields cmin == cmax == 0, and
        // RangeMayMatch then reproduces Cmp3F's NaN-equals-everything
        // behaviour exactly (kEq keeps the page, kLt prunes it — just
        // like no tuple could ever satisfy kLt against NaN).
        cmin = Cmp3F(static_cast<double>(zc.min_i), c.const_f);
        cmax = Cmp3F(static_cast<double>(zc.max_i), c.const_f);
        break;
      case ColCompare::Kind::kF64F:
        if (schema.column(col).type != ColumnType::kDouble) continue;
        cmin = Cmp3F(zc.min_f, c.const_f);
        cmax = Cmp3F(zc.max_f, c.const_f);
        break;
      case ColCompare::Kind::kStr:
        if (schema.column(col).type != ColumnType::kChar) continue;
        cmin = Cmp3S(zc.min_s.data(), static_cast<uint32_t>(zc.min_s.size()),
                     c.const_s.data(), static_cast<uint32_t>(c.const_s.size()));
        cmax = Cmp3S(zc.max_s.data(), static_cast<uint32_t>(zc.max_s.size()),
                     c.const_s.data(), static_cast<uint32_t>(c.const_s.size()));
        break;
    }
    if (!RangeMayMatch(c.op, cmin, cmax)) return false;
  }
  return true;
}

std::vector<PageId> PruneScanPages(StorageEngine* storage,
                                   const PlanNode& scan,
                                   const std::vector<PageId>& pages,
                                   uint64_t view_commit_ts,
                                   IndexPruneCounters* stats) {
  if (scan.access_path == ScanAccessPath::kFullScan ||
      scan.prune_bounds.empty() || pages.empty()) {
    return pages;
  }
  auto file = storage->GetHeapFile(scan.relation);
  if (!file.ok()) return pages;  // Racing drop; the scan will fail anyway.
  const Schema& schema = (*file)->schema();

  // Grid-file candidate set (page ids the probe says may match).
  bool have_candidates = false;
  std::unordered_set<PageId> candidates;
  if (scan.access_path == ScanAccessPath::kGridFile) {
    auto meta = storage->catalog().GetIndex(scan.index_name);
    if (meta.ok() && meta->relation == scan.relation) {
      auto index =
          GetIndexManager(storage)->Resolve(*meta, view_commit_ts, pages);
      if (index != nullptr) {
        stats->gridfile_probes++;
        auto result = index->Probe(scan.prune_bounds);
        if (result.has_value()) {
          candidates.insert(result->begin(), result->end());
          have_candidates = true;
        }
      }
    }
    if (!have_candidates) stats->fallback_scans++;
  }

  std::vector<PageId> kept;
  kept.reserve(pages.size());
  for (PageId id : pages) {
    if (have_candidates && candidates.count(id) == 0) {
      stats->pages_pruned++;
      continue;
    }
    auto entry = (*file)->zone_maps().Get(id);
    if (entry != nullptr &&
        !ZoneMapMayMatch(*entry, schema, scan.prune_bounds)) {
      stats->pages_pruned++;
      stats->zonemap_hits++;
      continue;
    }
    kept.push_back(id);
  }
  return kept;
}

StatusOr<OpenedScan> OpenScan(StorageEngine* storage,
                              const Snapshot& snapshot, const PlanNode& scan,
                              const PlanNode* consumer,
                              IndexPruneCounters* index,
                              PushdownCounters* pushdown) {
  DFDB_ASSIGN_OR_RETURN(SnapshotView view, snapshot.View(scan.relation));
  OpenedScan opened;
  opened.pages =
      PruneScanPages(storage, scan, view.pages, view.commit_ts, index);
  if (!scan.pushdown) return opened;
  // The consumer re-applies the same program to the survivors; compiled
  // predicates are infallible per tuple, so re-filtering is idempotent.
  if (consumer != nullptr && consumer->op == PlanOp::kRestrict &&
      consumer->predicate != nullptr) {
    auto compiled =
        CompiledPredicate::Compile(*consumer->predicate, scan.output_schema);
    if (compiled.ok()) {
      opened.pushdown.emplace(*std::move(compiled));
      return opened;
    }
  }
  pushdown->fallbacks++;
  return opened;
}

}  // namespace dfdb
