/// \file page_test.cc
/// \brief Tests for pages, the page packer and its writers, the frame pool,
/// tuple encoding and the page store.

#include "storage/page.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "common/random.h"
#include "engine/run.h"
#include "storage/frame_pool.h"
#include "storage/page_sink.h"
#include "storage/page_store.h"
#include "storage/tuple.h"
#include "tests/test_util.h"
#include "workload/generator.h"

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
        [this](PagePtr page) { pages_.push_back(std::move(page)); }, pool_);
  }

  PagePtr FullPage(int tuple_width, int capacity_bytes) {
    auto page = Page::Create(1, tuple_width, capacity_bytes);
    EXPECT_TRUE(page.ok());
    const std::string tuple(static_cast<size_t>(tuple_width), 't');
    while (!page->full()) EXPECT_OK(page->Append(Slice(tuple)));
    return SealPage(*std::move(page));
  }

  FramePool pool_;  // Outlives the packers and the pages below.
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
  PagePacker packer(
      1, 4, 40,
      [&](PagePtr page) {
        std::lock_guard<std::mutex> lock(mu);
        pages.push_back(std::move(page));
      },
      pool_);
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
    PagePacker a(
        1, width, unit, [&](PagePtr s) { whole.push_back(s); }, pool_);
    PagePacker b(
        1, width, unit, [&](PagePtr s) { one_by_one.push_back(s); }, pool_);
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

TEST_F(PagePackerTest, WriterSealsWhatEmitSeals) {
  // One writer at a time must seal exactly the pages the same tuples would
  // seal emitted one by one: check-outs that pick up a part-filled page and
  // spill over several units, with single Emits and EmitPages in between.
  Random rng(19);
  PagePacker::Writer writer;  // Reused across check-outs and packers.
  for (int round = 0; round < 300; ++round) {
    const int width = 1 + static_cast<int>(rng.Uniform(24));
    const int spare =
        static_cast<int>(rng.Uniform(static_cast<uint64_t>(width)));
    const int per_unit = 1 + static_cast<int>(rng.Uniform(8));
    const int unit = width * per_unit + spare;
    std::vector<PagePtr> by_writer, by_tuple;
    PagePacker a(
        1, width, unit, [&](PagePtr s) { by_writer.push_back(s); }, pool_);
    PagePacker b(
        1, width, unit, [&](PagePtr s) { by_tuple.push_back(s); }, pool_);
    std::string tuple(static_cast<size_t>(width), '\0');
    auto next_tuple = [&] {
      for (char& c : tuple) c = static_cast<char>(rng.Uniform(256));
      return Slice(tuple);
    };
    for (int step = 0; step < 6; ++step) {
      switch (rng.Uniform(3)) {
        case 0: {
          // A check-out of up to three units, delivering part way.
          const int n = static_cast<int>(
              rng.Uniform(static_cast<uint64_t>(3 * per_unit + 2)));
          const int deliver_at = static_cast<int>(
              rng.Uniform(static_cast<uint64_t>(n + 1)));
          ASSERT_OK(a.CheckOut(&writer));
          for (int i = 0; i < n; ++i) {
            if (i == deliver_at) writer.Deliver();
            const Slice t = next_tuple();
            ASSERT_OK(writer.Emit(t));
            ASSERT_OK(b.Emit(t));
          }
          EXPECT_EQ(writer.tuples_written(), static_cast<uint64_t>(n));
          writer.CheckIn();
          break;
        }
        case 1: {
          const Slice t = next_tuple();
          ASSERT_OK(a.Emit(t));
          ASSERT_OK(b.Emit(t));
          break;
        }
        default: {
          // A full unit page (which passes through when no partial page is
          // free) or a part-filled one.
          ASSERT_OK_AND_ASSIGN(Page page, Page::Create(1, width, unit));
          const int n = rng.Bernoulli(0.5)
                            ? per_unit
                            : static_cast<int>(rng.Uniform(
                                  static_cast<uint64_t>(per_unit)));
          for (int i = 0; i < n; ++i) {
            const Slice t = next_tuple();
            ASSERT_OK(page.Append(t));
            ASSERT_OK(b.Emit(t));
          }
          ASSERT_OK(a.EmitPage(SealPage(std::move(page))));
          break;
        }
      }
      ASSERT_EQ(by_writer.size(), by_tuple.size())
          << "round " << round << " step " << step;
    }
    EXPECT_EQ(a.tuples_emitted(), b.tuples_emitted());
    ASSERT_OK(a.Close());
    ASSERT_OK(b.Close());
    ASSERT_EQ(by_writer.size(), by_tuple.size()) << "round " << round;
    for (size_t i = 0; i < by_writer.size(); ++i) {
      EXPECT_EQ(by_writer[i]->Serialize(), by_tuple[i]->Serialize())
          << "round " << round << " page " << i;
    }
  }
}

TEST_F(PagePackerTest, ConcurrentWritersStayContiguous) {
  // Four writers check out and in through one packer, as a node's tasks
  // do. Each tuple is (thread, check-out, position): every one must be
  // sealed once, a check-out's tuples must stay back to back in each page
  // and continue at slot 0 of its next frame, and once closed every page
  // but the last must be full.
  constexpr int kThreads = 4;
  constexpr int kCheckOuts = 1000;
  constexpr int kWidth = 12;
  constexpr int kPerPage = 7;
  std::mutex mu;
  std::vector<PagePtr> pages;
  bool closing = false;
  size_t sealed_before_close = 0;
  PagePacker packer(
      1, kWidth, kWidth * kPerPage + 5,
      [&](PagePtr page) {
        std::lock_guard<std::mutex> lock(mu);
        pages.push_back(std::move(page));
        if (!closing) sealed_before_close = pages.size();
      },
      pool_);
  std::vector<std::vector<int>> lengths(kThreads);
  Random rng(20);
  for (auto& l : lengths) {
    for (int r = 0; r < kCheckOuts; ++r) {
      l.push_back(1 + static_cast<int>(rng.Uniform(3 * kPerPage)));
    }
  }
  // Every thread waits at the gate until all have started, so their
  // check-outs overlap instead of running one thread after another.
  std::atomic<int> gate{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&packer, &lengths, &gate, t] {
      const std::vector<int>& mine = lengths[static_cast<size_t>(t)];
      PagePacker::Writer writer;
      gate.fetch_add(1);
      while (gate.load() < kThreads) std::this_thread::yield();
      for (int r = 0; r < kCheckOuts; ++r) {
        ASSERT_TRUE(packer.CheckOut(&writer).ok());
        for (int p = 0; p < mine[static_cast<size_t>(r)]; ++p) {
          const int32_t f[3] = {t, r, p};
          ASSERT_TRUE(writer.Emit(Slice(reinterpret_cast<const char*>(f),
                                        sizeof(f)))
                          .ok());
        }
        writer.CheckIn();
      }
    });
  }
  for (auto& th : threads) th.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    closing = true;
  }
  ASSERT_TRUE(packer.Close().ok());

  size_t total = 0;
  for (const auto& l : lengths) {
    for (int n : l) total += static_cast<size_t>(n);
  }
  EXPECT_EQ(pages.size(), (total + kPerPage - 1) / kPerPage);
  // A check-out's stretch within one page.
  struct Segment {
    size_t page;
    int page_size, start, end, first_pos, last_pos;
  };
  std::map<std::pair<int, int>, std::vector<Segment>> checkouts;
  size_t seen = 0;
  int partial_pages = 0;
  for (size_t pi = 0; pi < pages.size(); ++pi) {
    const PagePtr& page = pages[pi];
    if (!page->full()) ++partial_pages;
    std::pair<int, int> open_key{-1, -1};
    for (int i = 0; i < page->num_tuples(); ++i) {
      int32_t f[3];
      std::memcpy(f, page->tuple(i).data(), sizeof(f));
      const std::pair<int, int> key{f[0], f[1]};
      ++seen;
      if (key == open_key) {
        Segment& seg = checkouts[key].back();
        ASSERT_EQ(f[2], seg.last_pos + 1) << "check-out out of order";
        seg.end = i;
        seg.last_pos = f[2];
        continue;
      }
      open_key = key;
      checkouts[key].push_back(
          Segment{pi, page->num_tuples(), i, i, f[2], f[2]});
    }
  }
  EXPECT_EQ(seen, total);
  EXPECT_LE(partial_pages, 1);
  ASSERT_EQ(checkouts.size(), static_cast<size_t>(kThreads * kCheckOuts));
  for (auto& [key, segs] : checkouts) {
    std::sort(segs.begin(), segs.end(), [](const Segment& x, const Segment& y) {
      return x.first_pos < y.first_pos;
    });
    EXPECT_EQ(segs.front().first_pos, 0);
    EXPECT_EQ(segs.back().last_pos,
              lengths[static_cast<size_t>(key.first)]
                     [static_cast<size_t>(key.second)] - 1);
    for (size_t i = 0; i < segs.size(); ++i) {
      if (i > 0) {
        EXPECT_EQ(segs[i].first_pos, segs[i - 1].last_pos + 1);
        // A writer seals a frame only when it is full and goes on at slot
        // 0 of a fresh one. Close() may copy a last partial frame behind
        // another, so its pages carry no slot-0 promise.
        if (segs[i].page < sealed_before_close) {
          EXPECT_EQ(segs[i].start, 0);
        }
      }
      if (i + 1 < segs.size()) {
        EXPECT_EQ(segs[i].end, segs[i].page_size - 1);
      }
    }
  }
  EXPECT_EQ(packer.tuples_emitted(), total);
  // Only Close() copies tuples, and only out of the writers' last frames.
  EXPECT_GE(sealed_before_close + kThreads, pages.size());
}

TEST_F(PagePackerTest, CloseCompressesTheWritersPartialPages) {
  // Four writers out at once each leave a partial frame; Close() copies
  // them behind one another, in check-in order, into full pages.
  auto packer = MakePacker(4, 28);  // 7 tuples per page.
  PagePacker::Writer writers[4];
  for (PagePacker::Writer& w : writers) ASSERT_OK(packer->CheckOut(&w));
  int32_t next = 0;
  for (int i = 0; i < 4; ++i) {
    for (int t = 0; t < 3 + i; ++t, ++next) {
      ASSERT_OK(writers[i].Emit(
          Slice(reinterpret_cast<const char*>(&next), sizeof(next))));
    }
  }
  for (PagePacker::Writer& w : writers) w.CheckIn();
  EXPECT_TRUE(pages_.empty());  // No frame filled.
  ASSERT_OK(packer->Close());
  ASSERT_EQ(pages_.size(), 3u);  // 18 tuples: 7 + 7 + 4.
  EXPECT_EQ(pages_[0]->num_tuples(), 7);
  EXPECT_EQ(pages_[1]->num_tuples(), 7);
  EXPECT_EQ(pages_[2]->num_tuples(), 4);
  int32_t want = 0;
  for (const PagePtr& page : pages_) {
    for (int i = 0; i < page->num_tuples(); ++i, ++want) {
      int32_t got;
      std::memcpy(&got, page->tuple(i).data(), sizeof(got));
      EXPECT_EQ(got, want);
    }
  }
  EXPECT_EQ(packer->tuples_emitted(), 18u);
}

TEST_F(PagePackerTest, WriterRejectsClosedPackerAndWrongWidth) {
  auto packer = MakePacker(10, 30);
  PagePacker::Writer writer;
  EXPECT_TRUE(writer.Emit(Slice("0123456789")).IsFailedPrecondition());
  ASSERT_OK(packer->CheckOut(&writer));
  EXPECT_TRUE(packer->CheckOut(&writer).IsFailedPrecondition());
  EXPECT_TRUE(writer.Emit(Slice("short")).IsInvalidArgument());
  const Slice nine[2] = {Slice("01234"), Slice("5678")};
  EXPECT_TRUE(writer.EmitParts(nine, 2).IsInvalidArgument());
  EXPECT_EQ(writer.tuples_written(), 0u);
  // Closing while a writer is out would strand its frame.
  EXPECT_TRUE(packer->Close().IsFailedPrecondition());
  writer.CheckIn();
  EXPECT_FALSE(writer.checked_out());
  ASSERT_OK(packer->Close());
  EXPECT_TRUE(packer->CheckOut(&writer).IsFailedPrecondition());
  EXPECT_FALSE(writer.checked_out());
  EXPECT_TRUE(pages_.empty());
  EXPECT_EQ(packer->tuples_emitted(), 0u);
}

// ---------------------------------------------------------------------------
// FramePool
// ---------------------------------------------------------------------------

TEST(FramePoolTest, FrameReturnsWhenLastPagePtrDrops) {
  FramePool pool;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Page> frame, pool.Acquire(1, 10, 30));
  ASSERT_OK(frame->Append(Slice("0123456789")));
  PagePtr first = pool.Seal(std::move(frame));
  PagePtr second = first;
  first.reset();
  EXPECT_EQ(pool.stats().live, 1u);
  EXPECT_EQ(pool.stats().free, 0u);
  second.reset();
  EXPECT_EQ(pool.stats().live, 0u);
  EXPECT_EQ(pool.stats().free, 1u);
  // A frame that was never sealed comes back too.
  ASSERT_OK_AND_ASSIGN(frame, pool.Acquire(1, 10, 30));
  EXPECT_EQ(pool.stats().free, 0u);
  pool.Release(std::move(frame));
  EXPECT_EQ(pool.stats().free, 1u);
  EXPECT_EQ(pool.stats().created, 1u);
}

TEST(FramePoolTest, ResultPagesReturnTheirFramesAndOutliveTheirEngine) {
  auto storage = std::make_unique<StorageEngine>(1024);
  ASSERT_OK(GenerateRelation(storage.get(), "r", 400, 3).status());
  ExecOptions opts;
  opts.num_processors = 2;
  opts.page_bytes = 1024;
  std::vector<PagePtr> pages;
  std::vector<std::string> bytes;
  {
    ASSERT_OK_AND_ASSIGN(
        QueryResult result,
        RunQuery(storage.get(),
                 *MakeRestrict(MakeScan("r"), Lt(Col("k10"), Lit(5))), opts));
    pages = result.pages();
  }
  // Each intermediate page's frame came back when the task that read it
  // retired, and the scheduler is gone: the result pages hold the only
  // frames still out.
  ASSERT_GT(pages.size(), 2u);
  EXPECT_EQ(storage->frame_pool().stats().live, pages.size());
  for (const PagePtr& page : pages) bytes.push_back(page->Serialize());
  pages.pop_back();
  EXPECT_EQ(storage->frame_pool().stats().live, pages.size());
  // A page held past its storage engine stays intact and is then freed.
  storage.reset();
  for (size_t i = 0; i < pages.size(); ++i) {
    EXPECT_EQ(pages[i]->Serialize(), bytes[i]);
  }
  pages.clear();
}

TEST(FramePoolTest, ReusedFrameCarriesNoStaleTuple) {
  FramePool pool;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Page> frame, pool.Acquire(7, 10, 40));
  for (int i = 0; i < 4; ++i) ASSERT_OK(frame->Append(Slice("stalestale")));
  const Page* address = frame.get();
  pool.Seal(std::move(frame)).reset();
  ASSERT_OK_AND_ASSIGN(frame, pool.Acquire(9, 5, 40));
  EXPECT_EQ(frame.get(), address);  // The same frame, reused...
  EXPECT_TRUE(frame->empty());      // ...holding nothing of its last page.
  EXPECT_EQ(frame->relation(), 9u);
  EXPECT_EQ(frame->tuple_width(), 5);
  EXPECT_EQ(frame->capacity_tuples(), 8);
  ASSERT_OK(frame->Append(Slice("fresh")));
  ASSERT_OK_AND_ASSIGN(Page expected, Page::Create(9, 5, 40));
  ASSERT_OK(expected.Append(Slice("fresh")));
  EXPECT_EQ(frame->Serialize(), expected.Serialize());
  pool.Release(std::move(frame));
}

TEST(FramePoolTest, FramesCreatedNeverExceedPeakLive) {
  // Packers seal pages while readers drop them in random order: a frame is
  // created only when none is free, so the pool never holds more frames
  // than were ever live at once.
  FramePool pool;
  Random rng(21);
  std::vector<PagePtr> held;
  PagePacker packer(
      1, 8, 64, [&](PagePtr page) { held.push_back(std::move(page)); },
      pool);
  PagePacker::Writer writer;
  for (int step = 0; step < 2000; ++step) {
    if (rng.Bernoulli(0.5)) {
      ASSERT_OK(packer.CheckOut(&writer));
      const int n = static_cast<int>(rng.Uniform(20));
      for (int i = 0; i < n; ++i) ASSERT_OK(writer.Emit(Slice("tupletup")));
      writer.CheckIn();
    } else if (!held.empty()) {
      const size_t victim = rng.Uniform(held.size());
      held[victim] = std::move(held.back());
      held.pop_back();
    }
    const FramePoolStats stats = pool.stats();
    ASSERT_LE(stats.created, stats.peak_live) << "step " << step;
    ASSERT_EQ(stats.created, stats.live + stats.free) << "step " << step;
  }
  EXPECT_GT(pool.stats().created, 1u);
  EXPECT_LT(pool.stats().created, 2000u);
  ASSERT_OK(packer.Close());
}

TEST(FramePoolTest, FreeFramesStayWithinTheBudget) {
  // A burst of large frames, as one big result leaves behind: the pool
  // keeps what fits kMaxFreeBytes, frees the rest, and the next burst
  // reuses what it kept.
  constexpr int kCapacity = 4 << 20;
  const uint64_t kept = FramePool::kMaxFreeBytes / (kCapacity + sizeof(Page));
  ASSERT_GT(kept, 0u);
  FramePool pool;
  std::vector<PagePtr> burst;
  for (int round = 1; round <= 2; ++round) {
    for (uint64_t i = 0; i < kept + 3; ++i) {
      ASSERT_OK_AND_ASSIGN(std::unique_ptr<Page> frame,
                           pool.Acquire(1, 8, kCapacity));
      burst.push_back(pool.Seal(std::move(frame)));
    }
    burst.clear();
    // Three frames per burst were freed and made again.
    const FramePoolStats stats = pool.stats();
    EXPECT_EQ(stats.created, kept + 3 * round) << "round " << round;
    EXPECT_EQ(stats.live, 0u);
    EXPECT_EQ(stats.free, kept);
  }
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
