/// \file buffer_manager_test.cc
/// \brief Tests of the three-level storage hierarchy (Section 4.1) and the
/// residency set it keeps its upper two levels in.

#include "storage/buffer_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <list>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "storage/frame_pool.h"
#include "storage/residency_set.h"
#include "tests/test_util.h"

namespace dfdb {
namespace {

constexpr int kWidth = 10;

PagePtr MakePage(int bytes = 100) {
  auto page = Page::Create(1, kWidth, bytes);
  EXPECT_TRUE(page.ok());
  while (!page->full()) {
    EXPECT_OK(page->Append(Slice("0123456789")));
  }
  return SealPage(*std::move(page));
}

/// A full 100-byte page of random tuples.
PagePtr RandomPage(Random* rng) {
  auto page = Page::Create(1, kWidth, 100);
  EXPECT_TRUE(page.ok());
  while (!page->full()) {
    std::string tuple(kWidth, '\0');
    for (char& c : tuple) c = static_cast<char>(rng->Uniform(256));
    EXPECT_OK(page->Append(tuple));
  }
  return SealPage(*std::move(page));
}

/// Keeps the tuples whose first byte is even.
class EvenFirstByte final : public PushdownFilter {
 public:
  static bool Keeps(Slice tuple) { return (tuple.data()[0] & 1) == 0; }
  Status Filter(const Page& page, PageSink* sink) const override {
    for (int i = 0; i < page.num_tuples(); ++i) {
      if (Keeps(page.tuple(i))) DFDB_RETURN_IF_ERROR(sink->Emit(page.tuple(i)));
    }
    return Status::OK();
  }
};

TEST(BufferManagerTest, LocalHitIsFree) {
  PageStore store;
  BufferManager buffer(&store, /*local=*/4, /*cache=*/8);
  const PageId id = buffer.Admit(*MakePage());
  buffer.Read(id, 100);
  const BufferStats stats = buffer.stats();
  EXPECT_EQ(stats.local_hits, 1u);
  EXPECT_EQ(stats.disk_read_bytes + stats.disk_write_bytes +
                stats.cache_read_bytes + stats.cache_write_bytes,
            0u);
}

TEST(BufferManagerTest, EvictionCascadesToCacheThenDisk) {
  PageStore store;
  BufferManager buffer(&store, /*local=*/2, /*cache=*/2);
  std::vector<PageId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(buffer.Admit(*MakePage()));
  // Local holds 2, cache holds 2, two victims went to "disk".
  EXPECT_EQ(buffer.local_resident_pages(), 2);
  EXPECT_EQ(buffer.cache_resident_pages(), 2);
  const BufferStats stats = buffer.stats();
  EXPECT_EQ(stats.cache_writes, 4u);  // Four local evictions.
  EXPECT_EQ(stats.disk_writes, 2u);   // Two cache evictions.
  EXPECT_EQ(stats.cache_write_bytes, 400u);
  EXPECT_EQ(stats.disk_write_bytes, 200u);
}

TEST(BufferManagerTest, ReadFromEachLevel) {
  PageStore store;
  BufferManager buffer(&store, 2, 2);
  std::vector<PageId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(buffer.Admit(*MakePage()));
  buffer.ResetStats();

  // ids[0..1] were evicted to disk, ids[2..3] to cache, ids[4..5] local.
  buffer.Read(ids[5], 100);
  EXPECT_EQ(buffer.stats().local_hits, 1u);

  buffer.Read(ids[3], 100);
  EXPECT_EQ(buffer.stats().cache_reads, 1u);
  EXPECT_EQ(buffer.stats().cache_read_bytes, 100u);
  EXPECT_EQ(buffer.stats().disk_reads, 0u);

  buffer.Read(ids[0], 100);
  EXPECT_EQ(buffer.stats().disk_reads, 1u);
  EXPECT_EQ(buffer.stats().disk_read_bytes, 100u);
}

TEST(BufferManagerTest, FetchReadsBasePagesFromTheStore) {
  PageStore store;
  BufferManager buffer(&store, 2, 2);
  const PageId base = store.Put(MakePage());
  ASSERT_OK_AND_ASSIGN(PagePtr miss, buffer.Fetch(base));
  EXPECT_EQ(miss->payload_bytes(), 100);
  EXPECT_EQ(buffer.stats().disk_reads, 1u);
  ASSERT_OK_AND_ASSIGN(PagePtr hit, buffer.Fetch(base));
  EXPECT_EQ(hit, miss);
  EXPECT_EQ(buffer.stats().local_hits, 1u);
  // An admitted page is tracked, not stored, and its id is not a base
  // page's.
  const PageId admitted = buffer.Admit(*MakePage());
  EXPECT_NE(admitted, base);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(buffer.Fetch(admitted).status().IsNotFound());
  EXPECT_EQ(buffer.stats().disk_reads, 1u);
}

TEST(BufferManagerTest, LruOrderGovernsEviction) {
  PageStore store;
  BufferManager buffer(&store, 2, 4);
  const PageId a = buffer.Admit(*MakePage());
  const PageId b = buffer.Admit(*MakePage());
  // Touch a so that b is the LRU victim when c arrives.
  buffer.Read(a, 100);
  const PageId c = buffer.Admit(*MakePage());
  (void)c;
  buffer.ResetStats();
  // a should still be local; b should be in the cache level.
  buffer.Read(a, 100);
  EXPECT_EQ(buffer.stats().local_hits, 1u);
  buffer.Read(b, 100);
  EXPECT_EQ(buffer.stats().cache_reads, 1u);
}

TEST(BufferManagerTest, ForgetDropsResidencyOnly) {
  PageStore store;
  BufferManager buffer(&store, 2, 2);
  const PageId id = buffer.Admit(*MakePage());
  buffer.Forget(id);
  EXPECT_EQ(buffer.local_resident_pages(), 0);
  EXPECT_EQ(buffer.cache_resident_pages(), 0);
  EXPECT_EQ(store.size(), 0u);
  // Forgetting again is a no-op, and a later read misses both levels.
  buffer.Forget(id);
  buffer.Read(id, 100);
  EXPECT_EQ(buffer.stats().disk_reads, 1u);
  // No write-back was counted for the forgotten page.
  EXPECT_EQ(buffer.stats().cache_writes, 0u);
}

TEST(BufferManagerTest, FlushAllDrainsResidency) {
  PageStore store;
  BufferManager buffer(&store, 4, 4);
  for (int i = 0; i < 4; ++i) buffer.Admit(*MakePage());
  buffer.FlushAll();
  EXPECT_EQ(buffer.local_resident_pages(), 0);
  EXPECT_EQ(buffer.cache_resident_pages(), 0);
  // Flushing counted the writebacks.
  EXPECT_EQ(buffer.stats().cache_writes, 4u);
  EXPECT_EQ(buffer.stats().disk_writes, 4u);
}

TEST(BufferManagerTest, StatsToStringIsHuman) {
  BufferStats stats;
  stats.disk_read_bytes = 1024;
  EXPECT_NE(stats.ToString().find("KB"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Differential: the residency set against the list+map manager it replaced
// ---------------------------------------------------------------------------

/// The list+map BufferManager the residency set replaced, without its
/// store: one std::list per level, most recent first, and one
/// unordered_map from id to level, bytes and list position. Its accounting
/// is the reference the new manager must match transfer for transfer.
class ListMapBuffer {
 public:
  ListMapBuffer(int local_capacity, int cache_capacity)
      : local_capacity_(local_capacity), cache_capacity_(cache_capacity) {}

  void Admit(PageId id, int bytes) { InsertLocal(id, bytes); }

  void Read(PageId id, int bytes) {
    auto it = entries_.find(id);
    if (it != entries_.end() && it->second.level == Level::kLocal) {
      stats.local_hits++;
      local_lru_.erase(it->second.lru_it);
      local_lru_.push_front(id);
      it->second.lru_it = local_lru_.begin();
      return;
    }
    if (it != entries_.end() && it->second.level == Level::kCache) {
      stats.cache_reads++;
      stats.cache_read_bytes += static_cast<uint64_t>(bytes);
      cache_lru_.erase(it->second.lru_it);
      entries_.erase(it);
      InsertLocal(id, bytes);
      return;
    }
    stats.disk_reads++;
    stats.disk_read_bytes += static_cast<uint64_t>(bytes);
    stats.cache_reads++;
    stats.cache_read_bytes += static_cast<uint64_t>(bytes);
    InsertLocal(id, bytes);
  }

  void ReadFiltered(PageId id, int bytes, uint64_t surviving_bytes) {
    auto it = entries_.find(id);
    if (it != entries_.end() && it->second.level == Level::kLocal) {
      stats.local_hits++;
      local_lru_.erase(it->second.lru_it);
      local_lru_.push_front(id);
      it->second.lru_it = local_lru_.begin();
    } else if (it != entries_.end() && it->second.level == Level::kCache) {
      stats.cache_reads++;
      stats.cache_read_bytes += surviving_bytes;
      cache_lru_.erase(it->second.lru_it);
      cache_lru_.push_front(id);
      it->second.lru_it = cache_lru_.begin();
    } else {
      stats.disk_reads++;
      stats.disk_read_bytes += static_cast<uint64_t>(bytes);
      stats.cache_reads++;
      stats.cache_read_bytes += surviving_bytes;
      InsertCache(id, bytes);
    }
  }

  void Forget(PageId id) {
    auto it = entries_.find(id);
    if (it == entries_.end()) return;
    if (it->second.level == Level::kLocal) {
      local_lru_.erase(it->second.lru_it);
    } else {
      cache_lru_.erase(it->second.lru_it);
    }
    entries_.erase(it);
  }

  void FlushAll() {
    while (!local_lru_.empty()) EvictFromLocal();
    while (!cache_lru_.empty()) EvictFromCache();
  }

  int local_size() const { return static_cast<int>(local_lru_.size()); }
  int cache_size() const { return static_cast<int>(cache_lru_.size()); }

  BufferStats stats;

 private:
  enum class Level { kLocal, kCache };
  struct Entry {
    Level level;
    int bytes;
    std::list<PageId>::iterator lru_it;
  };

  void InsertLocal(PageId id, int bytes) {
    while (static_cast<int>(local_lru_.size()) >= local_capacity_) {
      EvictFromLocal();
    }
    local_lru_.push_front(id);
    entries_[id] = Entry{Level::kLocal, bytes, local_lru_.begin()};
  }

  void InsertCache(PageId id, int bytes) {
    while (static_cast<int>(cache_lru_.size()) >= cache_capacity_) {
      EvictFromCache();
    }
    cache_lru_.push_front(id);
    entries_[id] = Entry{Level::kCache, bytes, cache_lru_.begin()};
  }

  void EvictFromLocal() {
    const PageId victim = local_lru_.back();
    local_lru_.pop_back();
    Entry& e = entries_.at(victim);
    stats.cache_writes++;
    stats.cache_write_bytes += static_cast<uint64_t>(e.bytes);
    while (static_cast<int>(cache_lru_.size()) >= cache_capacity_) {
      EvictFromCache();
    }
    cache_lru_.push_front(victim);
    e.level = Level::kCache;
    e.lru_it = cache_lru_.begin();
  }

  void EvictFromCache() {
    const PageId victim = cache_lru_.back();
    cache_lru_.pop_back();
    stats.disk_writes++;
    stats.disk_write_bytes += static_cast<uint64_t>(entries_.at(victim).bytes);
    entries_.erase(victim);
  }

  const int local_capacity_;
  const int cache_capacity_;
  std::unordered_map<PageId, Entry> entries_;
  std::list<PageId> local_lru_;
  std::list<PageId> cache_lru_;
};

void ExpectSameStats(const BufferStats& want, const BufferStats& got) {
  for (const auto& field : BufferStats::Fields()) {
    EXPECT_EQ(got.*field.member, want.*field.member) << field.key;
  }
}

TEST(BufferManagerDifferential, MatchesTheListMapManager) {
  const EvenFirstByte filter;
  for (int local : {1, 2, 8}) {
    for (int cache : {1, 2, 8}) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(::testing::Message() << "local=" << local
                                          << " cache=" << cache
                                          << " seed=" << seed);
        Random rng(seed);
        PageStore store;
        BufferManager buffer(&store, local, cache);
        ListMapBuffer want(local, cache);
        FramePool frames;
        PagePacker survivors(1, kWidth, 100, [](PagePtr) {}, frames);
        PagePacker::Writer writer;
        // Base pages live in the store; admitted pages only in the
        // hierarchy, under ids from the same counter. Both kinds are read
        // by id.
        struct Known {
          PageId id;
          PagePtr page;
        };
        std::vector<Known> base;
        std::vector<Known> known;
        for (int i = 0; i < 12; ++i) {
          PagePtr page = RandomPage(&rng);
          base.push_back(Known{store.Put(page), page});
        }
        known = base;
        for (int step = 0; step < 3000; ++step) {
          const uint64_t op = rng.Uniform(100);
          if (op < 25) {  // Admit a freshly produced page.
            auto page = Page::Create(1, kWidth, 100);
            ASSERT_TRUE(page.ok());
            const int n = static_cast<int>(rng.UniformInRange(1, 10));
            for (int i = 0; i < n; ++i) ASSERT_OK(page->Append("abcdefghij"));
            PagePtr sealed = SealPage(*std::move(page));
            const PageId id = buffer.Admit(*sealed);
            want.Admit(id, sealed->payload_bytes());
            known.push_back(Known{id, sealed});
          } else if (op < 40) {  // Fetch a base page from the store.
            const Known& k = base[rng.Uniform(base.size())];
            ASSERT_OK_AND_ASSIGN(PagePtr got, buffer.Fetch(k.id));
            ASSERT_EQ(got, k.page);
            want.Read(k.id, k.page->payload_bytes());
          } else if (op < 70) {  // Read a page the caller holds.
            const Known& k = known[rng.Uniform(known.size())];
            buffer.Read(k.id, k.page->payload_bytes());
            want.Read(k.id, k.page->payload_bytes());
          } else if (op < 83) {  // Near-data read of a base page.
            const Known& k = base[rng.Uniform(base.size())];
            uint64_t kept = 0;
            for (int i = 0; i < k.page->num_tuples(); ++i) {
              kept += EvenFirstByte::Keeps(k.page->tuple(i)) ? 1 : 0;
            }
            ASSERT_OK(survivors.CheckOut(&writer));
            Status s = buffer.ReadFiltered(k.id, filter, &writer, nullptr);
            writer.CheckIn();
            ASSERT_OK(s);
            want.ReadFiltered(k.id, k.page->payload_bytes(), kept * kWidth);
          } else if (op < 98) {  // Forget any page, resident or not.
            const PageId id = known[rng.Uniform(known.size())].id;
            buffer.Forget(id);
            want.Forget(id);
          } else {
            buffer.FlushAll();
            want.FlushAll();
          }
          SCOPED_TRACE(::testing::Message() << "step " << step << " op " << op);
          ExpectSameStats(want.stats, buffer.stats());
          ASSERT_EQ(buffer.local_resident_pages(), want.local_size());
          ASSERT_EQ(buffer.cache_resident_pages(), want.cache_size());
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

TEST(BufferManagerTest, FourThreadsShareOneHierarchy) {
  constexpr int kThreads = 4;
  constexpr int kSteps = 4000;
  constexpr int kLocal = 4;
  constexpr int kCache = 8;
  PageStore store;
  BufferManager buffer(&store, kLocal, kCache);
  std::vector<PageId> base;
  for (int i = 0; i < 16; ++i) base.push_back(store.Put(MakePage()));
  const EvenFirstByte filter;
  FramePool frames;
  PagePacker survivors(1, kWidth, 100, [](PagePtr) {}, frames);

  std::atomic<bool> go{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::vector<PageId>> minted(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(100 + static_cast<uint64_t>(t));
      PagePacker::Writer writer;
      std::vector<PageId>& mine = minted[static_cast<size_t>(t)];
      uint64_t my_reads = 0;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int step = 0; step < kSteps; ++step) {
        const uint64_t op = rng.Uniform(100);
        if (op < 20) {
          mine.push_back(buffer.Admit(*MakePage()));
        } else if (op < 25) {
          // New base pages draw from the counter Admit draws from.
          mine.push_back(store.Put(MakePage()));
        } else if (op < 40) {
          EXPECT_OK(buffer.Fetch(base[rng.Uniform(base.size())]).status());
          ++my_reads;
        } else if (op < 70 && !mine.empty()) {
          buffer.Read(mine[rng.Uniform(mine.size())], 100);
          ++my_reads;
        } else if (op < 85) {
          EXPECT_OK(survivors.CheckOut(&writer));
          EXPECT_OK(buffer.ReadFiltered(base[rng.Uniform(base.size())],
                                        filter, &writer, nullptr));
          writer.CheckIn();
          ++my_reads;
        } else if (!mine.empty()) {
          buffer.Forget(mine[rng.Uniform(mine.size())]);
        }
        if (step % 500 == 0) {
          EXPECT_LE(buffer.local_resident_pages(), kLocal);
          EXPECT_LE(buffer.cache_resident_pages(), kCache);
        }
      }
      reads.fetch_add(my_reads);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  // Every id drawn, by Admit or Put, on any thread, is distinct from every
  // other and from the base pages'.
  std::vector<PageId> all = base;
  for (const std::vector<PageId>& ids : minted) {
    all.insert(all.end(), ids.begin(), ids.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  // Each read was exactly one local hit or one cache -> local transfer.
  const BufferStats stats = buffer.stats();
  EXPECT_EQ(stats.local_hits + stats.cache_reads, reads.load());
  EXPECT_LE(buffer.local_resident_pages(), kLocal);
  EXPECT_LE(buffer.cache_resident_pages(), kCache);
  buffer.FlushAll();
  EXPECT_EQ(buffer.local_resident_pages(), 0);
  EXPECT_EQ(buffer.cache_resident_pages(), 0);
}

// ---------------------------------------------------------------------------
// ResidencySet
// ---------------------------------------------------------------------------

TEST(ResidencySetTest, TouchAdmitEvict) {
  ResidencySet lru({2});
  std::vector<PageId> evicted;
  const auto record = [&](PageId id, int) { evicted.push_back(id); };
  lru.Admit(1, 0, 0, record);
  lru.Admit(2, 0, 0, record);
  EXPECT_EQ(lru.Touch(1), 0);  // 1 becomes MRU.
  lru.Admit(3, 0, 0, record);
  EXPECT_EQ(evicted, (std::vector<PageId>{2}));
  EXPECT_EQ(lru.LevelOf(1), 0);
  EXPECT_EQ(lru.LevelOf(2), ResidencySet::kAbsent);
  EXPECT_EQ(lru.LevelOf(3), 0);
  EXPECT_EQ(lru.Touch(2), ResidencySet::kAbsent);
  EXPECT_TRUE(lru.Forget(1));
  EXPECT_FALSE(lru.Forget(1));
  EXPECT_EQ(lru.size(0), 1);
}

TEST(ResidencySetTest, AdmittingAPresentPageRefreshesIt) {
  ResidencySet lru({2});
  std::vector<PageId> evicted;
  const auto record = [&](PageId id, int) { evicted.push_back(id); };
  lru.Admit(1, 0, 0, record);
  lru.Admit(2, 0, 0, record);
  lru.Admit(1, 0, 0, record);  // Present: refreshed, nothing leaves.
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(lru.size(0), 2);
  lru.Admit(3, 0, 0, record);
  EXPECT_EQ(evicted, (std::vector<PageId>{2}));
}

TEST(ResidencySetTest, VictimsLeaveInLruOrderAndMayMoveDown) {
  ResidencySet set({3, 2});
  std::vector<std::pair<PageId, int>> spilled;
  std::vector<PageId> dropped;
  const auto spill = [&](PageId id, int bytes) {
    spilled.emplace_back(id, bytes);
    set.Admit(id, 1, bytes, [&](PageId v, int) { dropped.push_back(v); });
  };
  for (PageId id = 1; id <= 6; ++id) {
    set.Admit(id, 0, static_cast<int>(10 * id), spill);
  }
  // 1, 2, 3 spilled to level 1 in that order, which kept the last two.
  EXPECT_EQ(spilled, (std::vector<std::pair<PageId, int>>{
                         {1, 10}, {2, 20}, {3, 30}}));
  EXPECT_EQ(dropped, (std::vector<PageId>{1}));
  EXPECT_EQ(set.LevelOf(2), 1);
  EXPECT_EQ(set.LevelOf(6), 0);
  // A page admitted to another level moves; the level it left has room.
  set.Admit(2, 0, 20, spill);
  EXPECT_EQ(set.LevelOf(2), 0);
  EXPECT_EQ(spilled.back(), (std::pair<PageId, int>{4, 40}));
  EXPECT_EQ(set.size(0), 3);
  EXPECT_EQ(set.size(1), 2);
  std::vector<PageId> drained;
  set.Drain(0, [&](PageId id, int) { drained.push_back(id); });
  EXPECT_EQ(drained, (std::vector<PageId>{5, 6, 2}));
  EXPECT_EQ(set.size(0), 0);
}

TEST(ResidencySetTest, ZeroCapacityHoldsNothing) {
  ResidencySet lru({0});
  lru.Admit(1, 0, 0, [](PageId, int) { FAIL() << "nothing to evict"; });
  EXPECT_EQ(lru.LevelOf(1), ResidencySet::kAbsent);
  EXPECT_EQ(lru.size(0), 0);
}

TEST(ResidencySetTest, IndexSurvivesChurn) {
  // Ids drawn from a narrow range collide in the index and are forgotten
  // out of probe order, which exercises the deletion's backward shift.
  Random rng(5);
  ResidencySet set({7});
  std::list<PageId> model;  // Most recent first.
  for (int step = 0; step < 20000; ++step) {
    const PageId id = 1 + rng.Uniform(40) * 64;
    const auto it = std::find(model.begin(), model.end(), id);
    if (rng.Bernoulli(0.3)) {
      EXPECT_EQ(set.Forget(id), it != model.end());
      if (it != model.end()) model.erase(it);
    } else {
      std::vector<PageId> evicted;
      set.Admit(id, 0, 0, [&](PageId v, int) { evicted.push_back(v); });
      std::vector<PageId> want;
      if (it != model.end()) {
        model.erase(it);
      } else {
        while (model.size() >= 7) {
          want.push_back(model.back());
          model.pop_back();
        }
      }
      model.push_front(id);
      ASSERT_EQ(evicted, want) << "step " << step;
    }
    ASSERT_EQ(set.size(0), static_cast<int>(model.size()));
  }
  for (PageId id : model) EXPECT_EQ(set.LevelOf(id), 0);
}

}  // namespace
}  // namespace dfdb
