/// \file residency_set.h
/// \brief Which pages each level of the storage hierarchy holds, in
/// least-recently-used order.

#ifndef DFDB_STORAGE_RESIDENCY_SET_H_
#define DFDB_STORAGE_RESIDENCY_SET_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "storage/page.h"

namespace dfdb {

/// \brief Page residency in one or more LRU levels of fixed capacity.
///
/// The bookkeeping of Section 4.1's hierarchy for both backends: the
/// threads engine's BufferManager keeps IC local memory and the disk cache
/// as the two levels of one set, and the machine simulator keeps each IC's
/// local memory and the shared disk cache in a one-level set each.
///
/// Every entry lives in one slab sized once from the capacities. Each level
/// is a list of slab indices linked both ways, most recent first, and an
/// open-addressing table maps page ids to slots. So admitting, touching,
/// moving a page between levels, evicting and forgetting allocate nothing.
///
/// Not thread-safe: the owner serializes access.
class ResidencySet {
 public:
  /// The level of a page no level holds.
  static constexpr int kAbsent = -1;

  /// Level i holds at most \p capacities[i] pages; a level of capacity 0
  /// keeps nothing.
  explicit ResidencySet(std::vector<int> capacities);

  /// The level holding \p id, or kAbsent.
  int LevelOf(PageId id) const {
    const int slot = index_[Probe(id)];
    return slot == kNil ? kAbsent : slots_[static_cast<size_t>(slot)].level;
  }
  /// Pages held at \p level.
  int size(int level) const {
    return levels_[static_cast<size_t>(level)].size;
  }

  /// Makes \p id the most recent page of its level and returns the level,
  /// or kAbsent (changing nothing) when no level holds it.
  int Touch(PageId id);

  /// Makes \p id the most recent page of \p level, holding \p bytes. A page
  /// already at that level is only refreshed; one at another level moves.
  /// To make room, the level's least recent pages leave the set first, and
  /// each is passed to \p evicted(id, bytes), in order, once it has left:
  /// the callback may admit it to another level.
  template <typename OnEvict>
  void Admit(PageId id, int level, int bytes, OnEvict&& evicted) {
    const size_t pos = Probe(id);
    const int slot = index_[pos];
    if (slot != kNil) {
      if (slots_[static_cast<size_t>(slot)].level == level) {
        MoveToFront(slot);
        return;
      }
      Remove(pos);
    }
    Level& l = levels_[static_cast<size_t>(level)];
    if (l.capacity == 0) return;
    while (l.size >= l.capacity) {
      const std::pair<PageId, int> victim = PopOldest(level);
      evicted(victim.first, victim.second);
    }
    Insert(id, level, bytes);
  }

  /// Empties \p level, least recent page first, passing each page to
  /// \p evicted(id, bytes) as Admit does.
  template <typename OnEvict>
  void Drain(int level, OnEvict&& evicted) {
    while (size(level) > 0) {
      const std::pair<PageId, int> victim = PopOldest(level);
      evicted(victim.first, victim.second);
    }
  }

  /// Drops \p id from the set. False when no level holds it.
  bool Forget(PageId id);

 private:
  static constexpr int kNil = -1;

  struct Slot {
    PageId id = kInvalidPageId;
    int bytes = 0;
    int level = kAbsent;
    /// Neighbours in the level's list: `prev` is more recent. A free slot
    /// links the free list through `next`.
    int prev = kNil;
    int next = kNil;
  };
  struct Level {
    int capacity = 0;
    int size = 0;
    int head = kNil;  ///< Most recent.
    int tail = kNil;  ///< Least recent.
  };

  /// The index position of \p id's slot, or the empty position where it
  /// would go.
  size_t Probe(PageId id) const {
    size_t pos = Home(id);
    while (index_[pos] != kNil &&
           slots_[static_cast<size_t>(index_[pos])].id != id) {
      pos = (pos + 1) & mask_;
    }
    return pos;
  }
  size_t Home(PageId id) const {
    // Fibonacci hashing: consecutive ids land far apart.
    return static_cast<size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void Insert(PageId id, int level, int bytes);
  /// Unlinks and frees the slot at index position \p pos.
  void Remove(size_t pos);
  std::pair<PageId, int> PopOldest(int level);
  void LinkFront(int slot, int level);
  void Unlink(int slot);
  void MoveToFront(int slot);

  std::vector<Level> levels_;
  std::vector<Slot> slots_;
  int free_ = kNil;
  /// Slot per position, kNil when empty; a power of two at least twice the
  /// slab, probed linearly.
  std::vector<int> index_;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace dfdb

#endif  // DFDB_STORAGE_RESIDENCY_SET_H_
