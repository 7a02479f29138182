/// \file access_path.h
/// \brief How a base-relation scan is opened — the one implementation both
/// backends call.
///
/// The optimizer marks a kScan with an access path and pre-resolved bounds
/// (PlanNode::access_path / prune_bounds) and, for near-data pushdown, with
/// PlanNode::pushdown. At execution time the threads engine (scheduler
/// scan drivers) and the ring simulator (IC operand staging) open every
/// scan with OpenScan() before reading anything: the query's snapshot view,
/// pruned by PruneScanPages(), plus the consumer's predicate compiled for
/// pushdown. Because both backends open the *same marks* against the *same
/// snapshot view* with this one function, the surviving page sets are
/// identical — results stay byte-identical to a full scan, only the page
/// reads (and the simulator's ring transfers) shrink.

#ifndef DFDB_INDEX_ACCESS_PATH_H_
#define DFDB_INDEX_ACCESS_PATH_H_

#include <optional>
#include <vector>

#include "common/statusor.h"
#include "index/zone_map.h"
#include "obs/counters.h"
#include "ra/expr_compile.h"
#include "ra/plan.h"
#include "storage/snapshot.h"
#include "storage/storage_engine.h"

namespace dfdb {

/// True when a page with zone map \p entry may contain a tuple satisfying
/// every bound in \p bounds (the conjuncts of the consuming restrict).
/// Conservative: unknown columns, invalid summaries (NaN pages), and kNe
/// bounds keep the page. Exposed for tests; the NaN/CHAR-trim semantics
/// mirror expr_detail exactly.
bool ZoneMapMayMatch(const ZoneMapEntry& entry, const Schema& schema,
                     const std::vector<ColCompare>& bounds);

/// Prunes \p pages (the scan's snapshot page list, in view order) per the
/// scan's marks. \p view_commit_ts is the commit timestamp the page list
/// belongs to, which keys the grid-file cache. Returns the surviving subset
/// in the original order and accumulates counters into \p stats.
std::vector<PageId> PruneScanPages(StorageEngine* storage,
                                   const PlanNode& scan,
                                   const std::vector<PageId>& pages,
                                   uint64_t view_commit_ts,
                                   IndexPruneCounters* stats);

/// \brief What one base-relation read stages.
struct OpenedScan {
  /// The snapshot view's pages that survive pruning, in view order.
  std::vector<PageId> pages;
  /// The consumer's predicate compiled against the scan schema, run where
  /// the pages live; empty = ship raw pages.
  std::optional<CompiledPredicate> pushdown;
};

/// Opens the relation \p scan reads as of \p snapshot: its view, pruned by
/// PruneScanPages(), and for a pushdown-marked scan its plan \p consumer's
/// predicate, compiled. A marked scan whose consumer is not a restrict
/// with a compilable predicate reads raw pages and counts one
/// pushdown fallback — the one fallback rule. \p scan is a kScan leaf, or
/// a kDelete reading its own (never marked) target. Fails only when the
/// snapshot has no view of the relation.
StatusOr<OpenedScan> OpenScan(StorageEngine* storage,
                              const Snapshot& snapshot, const PlanNode& scan,
                              const PlanNode* consumer,
                              IndexPruneCounters* index,
                              PushdownCounters* pushdown);

}  // namespace dfdb

#endif  // DFDB_INDEX_ACCESS_PATH_H_
