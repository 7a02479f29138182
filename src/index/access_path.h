/// \file access_path.h
/// \brief Runtime page pruning for marked scans — the one implementation
/// both backends call.
///
/// The optimizer marks a kScan with an access path and pre-resolved bounds
/// (PlanNode::access_path / prune_bounds); at execution time the threads
/// engine (scheduler scan drivers) and the ring simulator (IC operand
/// staging) pass the scan's snapshot page list through PruneScanPages()
/// before reading anything. Because both backends prune the *same marks*
/// against the *same snapshot view* with this one function, the surviving
/// page sets are identical — results stay byte-identical to a full scan,
/// only the page reads (and the simulator's ring transfers) shrink.

#ifndef DFDB_INDEX_ACCESS_PATH_H_
#define DFDB_INDEX_ACCESS_PATH_H_

#include <vector>

#include "index/zone_map.h"
#include "obs/counters.h"
#include "ra/plan.h"
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
/// belongs to; \p allow_gridfile must be false when the caller reads a
/// working head rather than a committed version (barrier mode), where only
/// zone maps — keyed by immutable page id — are safe. Returns the
/// surviving subset in the original order and accumulates counters into
/// \p stats.
std::vector<PageId> PruneScanPages(StorageEngine* storage,
                                   const PlanNode& scan,
                                   const std::vector<PageId>& pages,
                                   uint64_t view_commit_ts,
                                   bool allow_gridfile,
                                   IndexPruneCounters* stats);

}  // namespace dfdb

#endif  // DFDB_INDEX_ACCESS_PATH_H_
