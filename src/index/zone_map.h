/// \file zone_map.h
/// \brief Per-page zone maps: min/max per attribute of a sealed page.
///
/// The paper's bandwidth argument (Section 3.3) is that only tuples which
/// survive a restrict should ever cross the rings; a zone map extends that
/// one level down — a page whose [min, max] range cannot contain a match is
/// never staged at all. Zone maps are built exactly once, when a page is
/// sealed (HeapFile::SealCurrentLocked and DeleteWhere's CoW rewrite are
/// the only two seal sites), and are erased when the page is freed. Because
/// sealed pages are immutable and MVCC versions are page-id lists, a zone
/// map is valid for every snapshot that can see its page — versioned
/// consistency falls out of page immutability, with no epoch bookkeeping.
///
/// This translation unit is compiled into dfdb_storage (HeapFile owns a
/// ZoneMapStore) and depends only on catalog + page; the predicate-facing
/// side (may-this-page-match for a ColCompare bound) lives in
/// index/access_path.h, above the ra layer.

#ifndef DFDB_INDEX_ZONE_MAP_H_
#define DFDB_INDEX_ZONE_MAP_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "storage/page.h"

namespace dfdb {

/// \brief Min/max summary of one column over one page.
///
/// Numeric columns keep int64 or double extrema depending on the column
/// type; CHAR columns keep right-trimmed string extrema (matching the
/// interpreter's trim-before-compare semantics, see expr_detail::TrimmedLen).
/// `valid == false` means "no usable summary — never prune on this column";
/// it is set for double columns containing a NaN, because the comparison
/// kernels treat NaN as equal to everything (Cmp3F returns 0), so no range
/// test is conservative for such a page.
struct ZoneMapColumn {
  bool valid = false;
  int64_t min_i = 0;
  int64_t max_i = 0;
  double min_f = 0;
  double max_f = 0;
  std::string min_s;
  std::string max_s;
};

/// \brief Zone map of one sealed page: one ZoneMapColumn per schema column.
struct ZoneMapEntry {
  uint32_t tuples = 0;
  std::vector<ZoneMapColumn> cols;  ///< Parallel to the relation schema.
};

/// Builds the zone map of a sealed page. Columns of an empty page are all
/// invalid (an empty page is pruned by tuple count, not by range).
ZoneMapEntry BuildZoneMap(const Schema& schema, const Page& page);

/// True when the zone map brackets every tuple of \p page: each valid
/// column's [min, max] contains the column value of every tuple. The
/// DFDB_SANITIZE seal-time invariant (a stale or mis-built map would make
/// pruning drop matching tuples silently).
bool ZoneMapBrackets(const ZoneMapEntry& entry, const Schema& schema,
                     const Page& page);

/// \brief Thread-safe PageId -> zone map store, one per HeapFile.
///
/// Readers (scan pruning, possibly from many worker threads) and writers
/// (seal under the heap file's mutex, erase at page free) synchronize on an
/// internal mutex; entries are shared_ptr<const> so a reader's view stays
/// alive across a concurrent erase. A hash map, because scan pruning looks
/// up every page of the relation on each submit.
class ZoneMapStore {
 public:
  void Put(PageId id, ZoneMapEntry entry) {
    std::lock_guard<std::mutex> lock(mu_);
    maps_[id] = std::make_shared<const ZoneMapEntry>(std::move(entry));
  }

  /// Null when the page has no map (pre-index pages never exist in-repo;
  /// a miss simply means "do not prune").
  std::shared_ptr<const ZoneMapEntry> Get(PageId id) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = maps_.find(id);
    return it == maps_.end() ? nullptr : it->second;
  }

  void Erase(PageId id) {
    std::lock_guard<std::mutex> lock(mu_);
    maps_.erase(id);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return maps_.size();
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<PageId, std::shared_ptr<const ZoneMapEntry>> maps_;
};

}  // namespace dfdb

#endif  // DFDB_INDEX_ZONE_MAP_H_
