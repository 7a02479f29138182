#include "storage/residency_set.h"

#include <limits>

#include "common/logging.h"

namespace dfdb {

ResidencySet::ResidencySet(std::vector<int> capacities) {
  size_t total = 0;
  levels_.resize(capacities.size());
  for (size_t i = 0; i < capacities.size(); ++i) {
    DFDB_CHECK(capacities[i] >= 0);
    levels_[i].capacity = capacities[i];
    total += static_cast<size_t>(capacities[i]);
  }
  // Slots are linked by int index.
  DFDB_CHECK(total < static_cast<size_t>(std::numeric_limits<int>::max()));
  slots_.resize(total);
  for (size_t i = 0; i < total; ++i) {
    slots_[i].next = i + 1 < total ? static_cast<int>(i + 1) : kNil;
  }
  free_ = total > 0 ? 0 : kNil;
  size_t positions = 2;
  int bits = 1;
  while (positions < 2 * total) {
    positions *= 2;
    ++bits;
  }
  index_.assign(positions, kNil);
  mask_ = positions - 1;
  shift_ = 64 - bits;
}

int ResidencySet::Touch(PageId id) {
  const int slot = index_[Probe(id)];
  if (slot == kNil) return kAbsent;
  MoveToFront(slot);
  return slots_[static_cast<size_t>(slot)].level;
}

bool ResidencySet::Forget(PageId id) {
  const size_t pos = Probe(id);
  if (index_[pos] == kNil) return false;
  Remove(pos);
  return true;
}

void ResidencySet::Insert(PageId id, int level, int bytes) {
  // The caller made room at the level, so the slab has a free slot.
  DFDB_CHECK(free_ != kNil);
  const int slot = free_;
  Slot& s = slots_[static_cast<size_t>(slot)];
  free_ = s.next;
  s.id = id;
  s.bytes = bytes;
  LinkFront(slot, level);
  index_[Probe(id)] = slot;
}

void ResidencySet::Remove(size_t pos) {
  const int slot = index_[pos];
  Unlink(slot);
  Slot& s = slots_[static_cast<size_t>(slot)];
  s.level = kAbsent;
  s.next = free_;
  free_ = slot;
  // Backward-shift deletion keeps every probe run unbroken without
  // tombstones: each later entry of the run moves into the hole unless
  // its home lies cyclically after the hole.
  size_t hole = pos;
  for (size_t i = (pos + 1) & mask_; index_[i] != kNil; i = (i + 1) & mask_) {
    const size_t home = Home(slots_[static_cast<size_t>(index_[i])].id);
    if (((i - home) & mask_) >= ((i - hole) & mask_)) {
      index_[hole] = index_[i];
      hole = i;
    }
  }
  index_[hole] = kNil;
}

std::pair<PageId, int> ResidencySet::PopOldest(int level) {
  const Slot& s = slots_[static_cast<size_t>(
      levels_[static_cast<size_t>(level)].tail)];
  const std::pair<PageId, int> victim{s.id, s.bytes};
  Remove(Probe(victim.first));
  return victim;
}

void ResidencySet::LinkFront(int slot, int level) {
  Level& l = levels_[static_cast<size_t>(level)];
  Slot& s = slots_[static_cast<size_t>(slot)];
  s.level = level;
  s.prev = kNil;
  s.next = l.head;
  if (l.head != kNil) {
    slots_[static_cast<size_t>(l.head)].prev = slot;
  } else {
    l.tail = slot;
  }
  l.head = slot;
  ++l.size;
}

void ResidencySet::Unlink(int slot) {
  Slot& s = slots_[static_cast<size_t>(slot)];
  Level& l = levels_[static_cast<size_t>(s.level)];
  if (s.prev != kNil) {
    slots_[static_cast<size_t>(s.prev)].next = s.next;
  } else {
    l.head = s.next;
  }
  if (s.next != kNil) {
    slots_[static_cast<size_t>(s.next)].prev = s.prev;
  } else {
    l.tail = s.prev;
  }
  --l.size;
}

void ResidencySet::MoveToFront(int slot) {
  const Slot& s = slots_[static_cast<size_t>(slot)];
  if (levels_[static_cast<size_t>(s.level)].head == slot) return;
  const int level = s.level;
  Unlink(slot);
  LinkFront(slot, level);
}

}  // namespace dfdb
