/// \file page_test.cc
/// \brief Tests for pages, the page packer, tuple encoding and the page
/// store.

#include "storage/page.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "common/random.h"
#include "storage/page_sink.h"
#include "storage/page_store.h"
#include "storage/tuple.h"
#include "tests/test_util.h"

namespace dfdb {
namespace {

Schema TwoColSchema() {
  return Schema::CreateOrDie({Column::Int32("a"), Column::Char("s", 6)});
}

std::string Encode(const Schema& schema, int32_t a, const std::string& s) {
  auto t = EncodeTuple(schema, {Value::Int32(a), Value::Char(s)});
  EXPECT_TRUE(t.ok()) << t.status();
  return *t;
}

TEST(PageTest, CreateValidation) {
  EXPECT_FALSE(Page::Create(1, 0, 100).ok());
  EXPECT_FALSE(Page::Create(1, -4, 100).ok());
  EXPECT_FALSE(Page::Create(1, 100, 50).ok());  // Cannot hold one tuple.
  ASSERT_OK_AND_ASSIGN(Page p, Page::Create(1, 10, 100));
  EXPECT_EQ(p.capacity_tuples(), 10);
  EXPECT_TRUE(p.empty());
  EXPECT_FALSE(p.full());
}

TEST(PageTest, AppendUntilFull) {
  Schema schema = TwoColSchema();
  ASSERT_OK_AND_ASSIGN(Page p, Page::Create(1, schema.tuple_width(), 35));
  EXPECT_EQ(p.capacity_tuples(), 3);
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(p.Append(Slice(Encode(schema, i, "abc"))));
  }
  EXPECT_TRUE(p.full());
  EXPECT_EQ(p.num_tuples(), 3);
  EXPECT_EQ(p.payload_bytes(), 30);
  EXPECT_TRUE(p.Append(Slice(Encode(schema, 4, "x"))).IsResourceExhausted());
  // Wrong-width tuples rejected.
  EXPECT_TRUE(p.Append(Slice("short")).IsInvalidArgument());
}

TEST(PageTest, AppendPartsMatchesAppend) {
  Schema schema = TwoColSchema();
  ASSERT_OK_AND_ASSIGN(Page whole, Page::Create(1, schema.tuple_width(), 35));
  ASSERT_OK_AND_ASSIGN(Page parts, Page::Create(1, schema.tuple_width(), 35));
  for (int i = 0; i < 3; ++i) {
    const std::string t = Encode(schema, i, "abc");
    ASSERT_OK(whole.Append(Slice(t)));
    const Slice split[2] = {Slice(t.data(), 4), Slice(t.data() + 4, 6)};
    ASSERT_OK(parts.AppendParts(split, 2));
  }
  ASSERT_EQ(parts.num_tuples(), whole.num_tuples());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(parts.tuple(i), whole.tuple(i));
  }
  // Wrong total width and full pages are rejected just like Append.
  const std::string t = Encode(schema, 9, "xyz");
  const Slice bad[1] = {Slice(t.data(), 4)};
  EXPECT_TRUE(parts.AppendParts(bad, 1).IsInvalidArgument());
  const Slice full[1] = {Slice(t)};
  EXPECT_TRUE(parts.AppendParts(full, 1).IsResourceExhausted());
}

TEST(PageTest, TupleRoundTrip) {
  Schema schema = TwoColSchema();
  ASSERT_OK_AND_ASSIGN(Page p, Page::Create(1, schema.tuple_width(), 100));
  ASSERT_OK(p.Append(Slice(Encode(schema, 42, "hello"))));
  TupleView view(&schema, p.tuple(0));
  ASSERT_OK(view.Validate());
  ASSERT_OK_AND_ASSIGN(Value a, view.GetValue(0));
  ASSERT_OK_AND_ASSIGN(Value s, view.GetValue(1));
  EXPECT_EQ(a.as_int32(), 42);
  EXPECT_EQ(s.as_char(), "hello");  // Padding trimmed.
  EXPECT_EQ(view.ToString(), "(42, hello)");
}

TEST(PageTest, SerializeRoundTrip) {
  Schema schema = TwoColSchema();
  ASSERT_OK_AND_ASSIGN(Page p, Page::Create(7, schema.tuple_width(), 64));
  ASSERT_OK(p.Append(Slice(Encode(schema, 1, "aa"))));
  ASSERT_OK(p.Append(Slice(Encode(schema, 2, "bb"))));
  const std::string wire = p.Serialize();
  ASSERT_OK_AND_ASSIGN(Page q, Page::Deserialize(Slice(wire)));
  EXPECT_EQ(q.relation(), 7u);
  EXPECT_EQ(q.num_tuples(), 2);
  EXPECT_EQ(q.tuple(1).ToString(), p.tuple(1).ToString());
}

TEST(PageTest, DeserializeRejectsCorruption) {
  Schema schema = TwoColSchema();
  ASSERT_OK_AND_ASSIGN(Page p, Page::Create(7, schema.tuple_width(), 64));
  ASSERT_OK(p.Append(Slice(Encode(schema, 1, "aa"))));
  std::string wire = p.Serialize();
  EXPECT_TRUE(Page::Deserialize(Slice(wire.data(), 8)).status().IsCorruption());
  std::string truncated = wire.substr(0, wire.size() - 1);
  EXPECT_TRUE(Page::Deserialize(Slice(truncated)).status().IsCorruption());
}

// ---------------------------------------------------------------------------
// PagePacker
// ---------------------------------------------------------------------------

class PagePackerTest : public ::testing::Test {
 protected:
  std::unique_ptr<PagePacker> MakePacker(int tuple_width, int unit_bytes) {
    return std::make_unique<PagePacker>(
        1, tuple_width, unit_bytes,
        [this](PagePtr page) { pages_.push_back(std::move(page)); });
  }

  PagePtr FullPage(int tuple_width, int capacity_bytes) {
    auto page = Page::Create(1, tuple_width, capacity_bytes);
    EXPECT_TRUE(page.ok());
    const std::string tuple(static_cast<size_t>(tuple_width), 't');
    while (!page->full()) EXPECT_OK(page->Append(Slice(tuple)));
    return SealPage(*std::move(page));
  }

  std::vector<PagePtr> pages_;
};

TEST_F(PagePackerTest, CompressesTuplesIntoFullPages) {
  auto packer = MakePacker(10, 35);  // 3 tuples per page, 5 bytes spare.
  for (int i = 0; i < 7; ++i) {
    ASSERT_OK(packer->Emit(Slice("0123456789")));
  }
  ASSERT_EQ(pages_.size(), 2u);  // 3 + 3 sealed, 1 open.
  EXPECT_TRUE(pages_[0]->full());
  EXPECT_EQ(pages_[0]->capacity_bytes(), 35);
  ASSERT_OK(packer->Close());
  ASSERT_EQ(pages_.size(), 3u);
  EXPECT_EQ(pages_[2]->num_tuples(), 1);
  EXPECT_EQ(packer->tuples_emitted(), 7u);
}

TEST_F(PagePackerTest, FlushSealsThePartialPageAndKeepsPacking) {
  auto packer = MakePacker(10, 30);
  ASSERT_OK(packer->Emit(Slice("0123456789")));
  packer->Flush();
  ASSERT_EQ(pages_.size(), 1u);
  EXPECT_EQ(pages_[0]->num_tuples(), 1);
  packer->Flush();  // Nothing open: no empty page is sealed.
  EXPECT_EQ(pages_.size(), 1u);
  const Slice parts[2] = {Slice("01234"), Slice("56789")};
  ASSERT_OK(packer->EmitParts(parts, 2));
  ASSERT_OK(packer->Close());
  ASSERT_EQ(pages_.size(), 2u);
  EXPECT_EQ(pages_[1]->tuple(0), Slice("0123456789"));
}

TEST_F(PagePackerTest, FullPagePassthrough) {
  auto packer = MakePacker(10, 30);
  PagePtr full = FullPage(10, 30);
  ASSERT_OK(packer->EmitPage(full));
  ASSERT_EQ(pages_.size(), 1u);
  EXPECT_EQ(pages_[0].get(), full.get());  // Same object, no copy.
  EXPECT_EQ(packer->tuples_emitted(), 3u);
}

TEST_F(PagePackerTest, PartialPageIsRepacked) {
  auto packer = MakePacker(10, 30);
  auto page = Page::Create(1, 10, 30);
  ASSERT_TRUE(page.ok());
  ASSERT_OK(page->Append(Slice("0123456789")));
  ASSERT_OK(packer->EmitPage(SealPage(*std::move(page))));
  EXPECT_TRUE(pages_.empty());  // Buffered, not yet a full unit.
  // A full page behind an open one is repacked too: passing it through
  // would put its tuples ahead of the buffered one.
  ASSERT_OK(packer->EmitPage(FullPage(10, 30)));
  ASSERT_EQ(pages_.size(), 1u);
  EXPECT_EQ(pages_[0]->tuple(0), Slice("0123456789"));
  ASSERT_OK(packer->Close());
  ASSERT_EQ(pages_.size(), 2u);
  EXPECT_EQ(pages_[1]->num_tuples(), 1);
}

TEST_F(PagePackerTest, MismatchedWidthPageRejected) {
  auto packer = MakePacker(10, 30);
  auto page = Page::Create(1, 5, 30);
  ASSERT_TRUE(page.ok());
  PagePtr p = SealPage(*std::move(page));
  EXPECT_TRUE(packer->EmitPage(p).IsInvalidArgument());
  EXPECT_TRUE(packer->Emit(Slice("short")).IsInvalidArgument());
}

TEST_F(PagePackerTest, EmitAfterCloseFails) {
  auto packer = MakePacker(10, 30);
  ASSERT_OK(packer->Close());
  EXPECT_TRUE(packer->Emit(Slice("0123456789")).IsFailedPrecondition());
  EXPECT_TRUE(packer->EmitPage(FullPage(10, 30)).IsFailedPrecondition());
  EXPECT_TRUE(packer->Close().IsFailedPrecondition());
  EXPECT_TRUE(pages_.empty());
}

TEST_F(PagePackerTest, ConcurrentProducersLoseNoTuples) {
  // Several producer threads emit through one packer (as parallel tasks of
  // one instruction do); every tuple must come out exactly once.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2500;
  std::mutex mu;
  std::vector<PagePtr> pages;
  PagePacker packer(1, 4, 40, [&](PagePtr page) {
    std::lock_guard<std::mutex> lock(mu);
    pages.push_back(std::move(page));
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&packer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int32_t v = t * kPerThread + i;
        char buf[4];
        std::memcpy(buf, &v, 4);
        ASSERT_TRUE(packer.Emit(Slice(buf, 4)).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(packer.Close().ok());
  std::vector<int32_t> seen;
  for (const PagePtr& page : pages) {
    for (int i = 0; i < page->num_tuples(); ++i) {
      int32_t v;
      std::memcpy(&v, page->tuple(i).data(), 4);
      seen.push_back(v);
    }
  }
  ASSERT_EQ(seen.size(), static_cast<size_t>(kThreads * kPerThread));
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    ASSERT_EQ(seen[static_cast<size_t>(i)], i);
  }
  EXPECT_EQ(packer.tuples_emitted(),
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST_F(PagePackerTest, UnitSmallerThanTupleClampsUp) {
  // Tuple granularity: unit = one tuple even if configured smaller.
  auto packer = MakePacker(10, 1);
  ASSERT_OK(packer->Emit(Slice("0123456789")));
  ASSERT_EQ(pages_.size(), 1u);  // Every tuple is immediately a page.
  EXPECT_EQ(pages_[0]->num_tuples(), 1);
  EXPECT_EQ(pages_[0]->capacity_bytes(), 10);
}

TEST_F(PagePackerTest, EmitPageSealsWhatTupleByTuplePackingSeals) {
  // Both backends and the simulator rely on EmitPage being only a shortcut:
  // for any page and unit, an empty packer must seal byte-identical pages
  // whether it takes the page whole or its tuples one by one.
  Random rng(18);
  int passed_through = 0;
  for (int round = 0; round < 500; ++round) {
    const int width = 1 + static_cast<int>(rng.Uniform(24));
    const int spare = static_cast<int>(rng.Uniform(static_cast<uint64_t>(width)));
    const int unit = width * (1 + static_cast<int>(rng.Uniform(8))) + spare;
    const int capacity =
        rng.Bernoulli(0.5) ? unit
                           : width * (1 + static_cast<int>(rng.Uniform(8)));
    ASSERT_OK_AND_ASSIGN(Page page, Page::Create(1, width, capacity));
    const int n = rng.Bernoulli(0.5)
                      ? page.capacity_tuples()
                      : static_cast<int>(rng.Uniform(
                            static_cast<uint64_t>(page.capacity_tuples())));
    std::string tuple(static_cast<size_t>(width), '\0');
    for (int i = 0; i < n; ++i) {
      for (char& c : tuple) c = static_cast<char>(rng.Uniform(256));
      ASSERT_OK(page.Append(Slice(tuple)));
    }
    const PagePtr p = SealPage(std::move(page));

    std::vector<PagePtr> whole, one_by_one;
    PagePacker a(1, width, unit, [&](PagePtr s) { whole.push_back(s); });
    PagePacker b(1, width, unit, [&](PagePtr s) { one_by_one.push_back(s); });
    ASSERT_OK(a.EmitPage(p));
    for (int i = 0; i < p->num_tuples(); ++i) ASSERT_OK(b.Emit(p->tuple(i)));
    ASSERT_OK(a.Close());
    ASSERT_OK(b.Close());
    if (!whole.empty() && whole[0] == p) ++passed_through;
    ASSERT_EQ(whole.size(), one_by_one.size()) << "round " << round;
    for (size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(whole[i]->Serialize(), one_by_one[i]->Serialize())
          << "round " << round << " page " << i;
    }
  }
  EXPECT_GT(passed_through, 0);  // The shortcut itself was exercised.
}

TEST_F(PagePackerTest, EmitRunSealsWhatEmitSeals) {
  // A kernel's run must seal exactly the pages its tuples would seal one by
  // one: runs spanning several units, runs landing on a part-filled open
  // page, and single tuples in between.
  Random rng(19);
  for (int round = 0; round < 300; ++round) {
    const int width = 1 + static_cast<int>(rng.Uniform(24));
    const int spare =
        static_cast<int>(rng.Uniform(static_cast<uint64_t>(width)));
    const int per_unit = 1 + static_cast<int>(rng.Uniform(8));
    const int unit = width * per_unit + spare;
    std::vector<PagePtr> by_run, by_tuple;
    PagePacker a(1, width, unit, [&](PagePtr s) { by_run.push_back(s); });
    PagePacker b(1, width, unit, [&](PagePtr s) { by_tuple.push_back(s); });
    std::string tuple(static_cast<size_t>(width), '\0');
    TupleRun run(width);
    for (int step = 0; step < 6; ++step) {
      // Alternate single tuples (leaving the open page part-filled) with
      // runs of up to three units.
      const bool single = rng.Bernoulli(0.3);
      const int n = single ? 1
                           : static_cast<int>(rng.Uniform(
                                 static_cast<uint64_t>(3 * per_unit + 2)));
      run.Reset(width);
      for (int i = 0; i < n; ++i) {
        for (char& c : tuple) c = static_cast<char>(rng.Uniform(256));
        ASSERT_OK(run.Emit(Slice(tuple)));
        ASSERT_OK(b.Emit(Slice(tuple)));
      }
      ASSERT_EQ(run.num_tuples(), static_cast<size_t>(n));
      if (single) {
        ASSERT_OK(a.Emit(run.bytes()));
      } else {
        ASSERT_OK(a.EmitRun(run));
      }
      ASSERT_EQ(by_run.size(), by_tuple.size())
          << "round " << round << " step " << step;
    }
    EXPECT_EQ(a.tuples_emitted(), b.tuples_emitted());
    ASSERT_OK(a.Close());
    ASSERT_OK(b.Close());
    ASSERT_EQ(by_run.size(), by_tuple.size()) << "round " << round;
    for (size_t i = 0; i < by_run.size(); ++i) {
      EXPECT_EQ(by_run[i]->Serialize(), by_tuple[i]->Serialize())
          << "round " << round << " page " << i;
    }
  }
}

TEST_F(PagePackerTest, ConcurrentRunsStayContiguous) {
  // Four producers emit runs through one packer, as a node's tasks do. Each
  // tuple is (producer, run, position); every one must be sealed once, each
  // run's tuples must stay back to back, and every page but the last must
  // be full.
  constexpr int kThreads = 4;
  constexpr int kRuns = 300;
  constexpr int kWidth = 12;
  constexpr int kPerPage = 7;
  std::mutex mu;
  std::vector<PagePtr> pages;
  PagePacker packer(1, kWidth, kWidth * kPerPage + 5, [&](PagePtr page) {
    std::lock_guard<std::mutex> lock(mu);
    pages.push_back(std::move(page));
  });
  std::vector<std::vector<int>> lengths(kThreads);
  Random rng(20);
  for (auto& l : lengths) {
    for (int r = 0; r < kRuns; ++r) {
      l.push_back(1 + static_cast<int>(rng.Uniform(3 * kPerPage)));
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&packer, &lengths, t] {
      const std::vector<int>& mine = lengths[static_cast<size_t>(t)];
      TupleRun run(kWidth);
      for (int r = 0; r < kRuns; ++r) {
        run.Reset(kWidth);
        for (int p = 0; p < mine[static_cast<size_t>(r)]; ++p) {
          const int32_t f[3] = {t, r, p};
          ASSERT_TRUE(run.Emit(Slice(reinterpret_cast<const char*>(f),
                                     sizeof(f)))
                          .ok());
        }
        ASSERT_TRUE(packer.EmitRun(run).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(packer.Close().ok());

  size_t total = 0;
  for (const auto& l : lengths) {
    for (int n : l) total += static_cast<size_t>(n);
  }
  EXPECT_EQ(pages.size(), (total + kPerPage - 1) / kPerPage);
  // A run's stretch within one page.
  struct Segment {
    int page_size, start, end, first_pos, last_pos;
  };
  std::map<std::pair<int, int>, std::vector<Segment>> runs;
  size_t seen = 0;
  int partial_pages = 0;
  for (const PagePtr& page : pages) {
    if (!page->full()) ++partial_pages;
    std::pair<int, int> open_key{-1, -1};
    for (int i = 0; i < page->num_tuples(); ++i) {
      int32_t f[3];
      std::memcpy(f, page->tuple(i).data(), sizeof(f));
      const std::pair<int, int> key{f[0], f[1]};
      ++seen;
      if (key == open_key) {
        Segment& seg = runs[key].back();
        ASSERT_EQ(f[2], seg.last_pos + 1) << "run out of order in a page";
        seg.end = i;
        seg.last_pos = f[2];
        continue;
      }
      open_key = key;
      runs[key].push_back(Segment{page->num_tuples(), i, i, f[2], f[2]});
    }
  }
  EXPECT_EQ(seen, total);
  EXPECT_LE(partial_pages, 1);
  ASSERT_EQ(runs.size(), static_cast<size_t>(kThreads * kRuns));
  for (auto& [key, segs] : runs) {
    std::sort(segs.begin(), segs.end(), [](const Segment& x, const Segment& y) {
      return x.first_pos < y.first_pos;
    });
    EXPECT_EQ(segs.front().first_pos, 0);
    EXPECT_EQ(segs.back().last_pos,
              lengths[static_cast<size_t>(key.first)]
                     [static_cast<size_t>(key.second)] - 1);
    for (size_t i = 0; i < segs.size(); ++i) {
      // A run crossing pages ends one page and starts the next.
      if (i > 0) {
        EXPECT_EQ(segs[i].first_pos, segs[i - 1].last_pos + 1);
        EXPECT_EQ(segs[i].start, 0);
      }
      if (i + 1 < segs.size()) {
        EXPECT_EQ(segs[i].end, segs[i].page_size - 1);
      }
    }
  }
  EXPECT_EQ(packer.tuples_emitted(), total);
}

TEST_F(PagePackerTest, EmitRunRejectsClosedPackerAndWrongWidth) {
  TupleRun run(10);
  ASSERT_OK(run.Emit(Slice("0123456789")));
  EXPECT_TRUE(run.Emit(Slice("short")).IsInvalidArgument());
  EXPECT_EQ(run.num_tuples(), 1u);

  auto narrow = MakePacker(5, 30);
  EXPECT_TRUE(narrow->EmitRun(run).IsInvalidArgument());

  auto packer = MakePacker(10, 30);
  ASSERT_OK(packer->Close());
  EXPECT_TRUE(packer->EmitRun(run).IsFailedPrecondition());
  EXPECT_TRUE(pages_.empty());
}

TEST(TupleTest, EncodeValidation) {
  Schema schema = TwoColSchema();
  // Wrong arity.
  EXPECT_TRUE(EncodeTuple(schema, {Value::Int32(1)}).status().IsInvalidArgument());
  // Wrong type.
  EXPECT_TRUE(EncodeTuple(schema, {Value::Double(1), Value::Char("x")})
                  .status()
                  .IsInvalidArgument());
  // Oversized CHAR.
  EXPECT_TRUE(EncodeTuple(schema, {Value::Int32(1), Value::Char("toolongg")})
                  .status()
                  .IsInvalidArgument());
}

TEST(TupleTest, ConcatAndProject) {
  Schema schema = TwoColSchema();
  const std::string a = Encode(schema, 1, "x");
  const std::string b = Encode(schema, 2, "y");
  const std::string joined = ConcatTuples(Slice(a), Slice(b));
  EXPECT_EQ(joined.size(), a.size() + b.size());
  Schema wide = schema.Concat(schema);
  TupleView view(&wide, Slice(joined));
  ASSERT_OK_AND_ASSIGN(Value v2, view.GetValue(2));
  EXPECT_EQ(v2.as_int32(), 2);

  const std::string projected = ProjectTuple(schema, Slice(a), {1});
  EXPECT_EQ(projected.size(), 6u);
  EXPECT_EQ(projected[0], 'x');
}

TEST(TupleTest, CompareColumnFastPaths) {
  Schema schema = TwoColSchema();
  const std::string a = Encode(schema, 5, "mm");
  const std::string b = Encode(schema, 9, "mm");
  TupleView va(&schema, Slice(a));
  TupleView vb(&schema, Slice(b));
  ASSERT_OK_AND_ASSIGN(int c_int, va.CompareColumn(0, vb, 0));
  EXPECT_LT(c_int, 0);
  ASSERT_OK_AND_ASSIGN(int c_str, va.CompareColumn(1, vb, 1));
  EXPECT_EQ(c_str, 0);
  EXPECT_TRUE(va.CompareColumn(7, vb, 0).status().IsOutOfRange());
}

TEST(PageStoreTest, PutGetFree) {
  PageStore store;
  ASSERT_OK_AND_ASSIGN(Page p, Page::Create(1, 10, 100));
  ASSERT_OK(p.Append(Slice("0123456789")));
  const PageId id = store.Put(SealPage(std::move(p)));
  EXPECT_NE(id, kInvalidPageId);
  EXPECT_EQ(store.size(), 1u);
  ASSERT_OK_AND_ASSIGN(PagePtr got, store.Get(id));
  EXPECT_EQ(got->num_tuples(), 1);
  ASSERT_OK(store.Free(id));
  EXPECT_TRUE(store.Get(id).status().IsNotFound());
  EXPECT_TRUE(store.Free(id).IsNotFound());
}

TEST(PageStoreTest, StatsCountBytes) {
  PageStore store;
  ASSERT_OK_AND_ASSIGN(Page p, Page::Create(1, 10, 100));
  ASSERT_OK(p.Append(Slice("0123456789")));
  const PageId id = store.Put(SealPage(std::move(p)));
  ASSERT_OK_AND_ASSIGN(PagePtr got, store.Get(id));
  (void)got;
  const PageStoreStats stats = store.stats();
  EXPECT_EQ(stats.pages_written, 1u);
  EXPECT_EQ(stats.bytes_written, 10u);
  EXPECT_EQ(stats.pages_read, 1u);
  EXPECT_EQ(stats.bytes_read, 10u);
  store.ResetStats();
  EXPECT_EQ(store.stats().pages_written, 0u);
}

}  // namespace
}  // namespace dfdb
