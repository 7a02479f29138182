/// \file concurrency_test.cc
/// \brief Tests for MC-style admission control (ConflictManager and
/// AdmissionQueue).

#include "engine/concurrency.h"

#include <gtest/gtest.h>

#include <deque>

#include "tests/test_util.h"

namespace dfdb {
namespace {

TEST(ConflictManagerTest, ReadersShare) {
  ConflictManager cm;
  EXPECT_TRUE(cm.TryAdmit(1, {"a", "b"}, {}));
  EXPECT_TRUE(cm.TryAdmit(2, {"a"}, {}));
  EXPECT_EQ(cm.admitted(), 2);
}

TEST(ConflictManagerTest, WriterExcludesReadersAndWriters) {
  ConflictManager cm;
  EXPECT_TRUE(cm.TryAdmit(1, {}, {"a"}));
  EXPECT_FALSE(cm.TryAdmit(2, {"a"}, {}));   // Read blocked by writer.
  EXPECT_FALSE(cm.TryAdmit(3, {}, {"a"}));   // Write blocked by writer.
  EXPECT_TRUE(cm.TryAdmit(4, {"b"}, {}));    // Unrelated relation fine.
  cm.Release(1);
  EXPECT_TRUE(cm.TryAdmit(2, {"a"}, {}));
  // Now a reader holds "a": a writer must wait.
  EXPECT_FALSE(cm.TryAdmit(5, {}, {"a"}));
  cm.Release(2);
  EXPECT_TRUE(cm.TryAdmit(5, {}, {"a"}));
}

TEST(ConflictManagerTest, AllOrNothingAcquisition) {
  ConflictManager cm;
  EXPECT_TRUE(cm.TryAdmit(1, {}, {"b"}));
  // Query 2 wants a (free) and b (held): must get neither.
  EXPECT_FALSE(cm.TryAdmit(2, {"a"}, {"b"}));
  // "a" must not have been locked by the failed attempt.
  EXPECT_TRUE(cm.TryAdmit(3, {}, {"a"}));
}

TEST(ConflictManagerTest, ReadAndWriteSameRelationBySameQuery) {
  ConflictManager cm;
  // Delete reads and writes its target: one exclusive lock suffices.
  EXPECT_TRUE(cm.TryAdmit(1, {"a"}, {"a"}));
  EXPECT_FALSE(cm.TryAdmit(2, {"a"}, {}));
  cm.Release(1);
  EXPECT_TRUE(cm.TryAdmit(2, {"a"}, {}));
}

TEST(ConflictManagerTest, ReleaseIsIdempotentAndScoped) {
  ConflictManager cm;
  EXPECT_TRUE(cm.TryAdmit(1, {"a"}, {}));
  EXPECT_TRUE(cm.TryAdmit(2, {"a"}, {}));
  cm.Release(1);
  cm.Release(1);  // No-op.
  // Query 2 still holds its read lock.
  EXPECT_FALSE(cm.TryAdmit(3, {}, {"a"}));
  cm.Release(2);
  EXPECT_TRUE(cm.TryAdmit(3, {}, {"a"}));
}

TEST(ConflictManagerTest, DoubleAdmitRejected) {
  ConflictManager cm;
  EXPECT_TRUE(cm.TryAdmit(1, {"a"}, {}));
  EXPECT_FALSE(cm.TryAdmit(1, {"b"}, {}));
}

// ---------------------------------------------------------------------------
// AdmissionQueue
// ---------------------------------------------------------------------------

TEST(AdmissionQueueTest, NonConflictingQueriesAdmitImmediately) {
  AdmissionQueue aq;
  EXPECT_TRUE(aq.Submit(1, {"a"}, {}));
  EXPECT_TRUE(aq.Submit(2, {"a"}, {}));
  EXPECT_TRUE(aq.Submit(3, {}, {"b"}));
  EXPECT_EQ(aq.admitted(), 3);
  EXPECT_EQ(aq.queued(), 0u);
}

TEST(AdmissionQueueTest, ConflictingQueryWaitsAndReAdmitsOnRelease) {
  AdmissionQueue aq;
  EXPECT_TRUE(aq.Submit(1, {}, {"a"}));
  EXPECT_FALSE(aq.Submit(2, {"a"}, {}));  // Blocked behind the writer.
  EXPECT_EQ(aq.queued(), 1u);
  auto admitted = aq.Release(1);
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0].qid, 2u);
  EXPECT_EQ(aq.queued(), 0u);
  EXPECT_EQ(aq.admitted(), 1);
}

TEST(AdmissionQueueTest, ReleaseAdmitsEveryNowCompatibleWaiter) {
  AdmissionQueue aq;
  EXPECT_TRUE(aq.Submit(1, {}, {"a"}));
  EXPECT_FALSE(aq.Submit(2, {"a"}, {}));
  EXPECT_FALSE(aq.Submit(3, {"a"}, {}));
  auto admitted = aq.Release(1);
  // Both readers fit together once the writer leaves.
  ASSERT_EQ(admitted.size(), 2u);
  EXPECT_EQ(admitted[0].qid, 2u);
  EXPECT_EQ(admitted[1].qid, 3u);
}

TEST(AdmissionQueueTest, FifoAmongConflictingWaiters) {
  AdmissionQueue aq;
  EXPECT_TRUE(aq.Submit(1, {}, {"a"}));
  EXPECT_FALSE(aq.Submit(2, {}, {"a"}));
  EXPECT_FALSE(aq.Submit(3, {}, {"a"}));
  auto first = aq.Release(1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].qid, 2u);  // Queue order, not arrival luck.
  auto second = aq.Release(2);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].qid, 3u);
}

TEST(AdmissionQueueTest, WriterBehindReaderStreamIsNotStarved) {
  // The regression the anti-starvation rule exists for: a writer queues
  // behind a reader; a continuous stream of new readers keeps the read lock
  // occupied. Without the skips barrier the writer waits forever.
  const int kMaxSkips = 4;
  AdmissionQueue aq(kMaxSkips);
  EXPECT_TRUE(aq.Submit(1, {"a"}, {}));
  EXPECT_FALSE(aq.Submit(2, {}, {"a"}));  // Writer queues behind reader 1.

  uint64_t next_reader = 3;
  int writer_admitted_after = -1;
  std::deque<uint64_t> running = {1};
  for (int round = 0; round < 100; ++round) {
    // A new reader arrives while at least one reader still holds the lock.
    if (aq.Submit(next_reader, {"a"}, {})) {
      running.push_back(next_reader);
    }
    ++next_reader;
    // The oldest running reader finishes.
    uint64_t finished = running.front();
    running.pop_front();
    for (const auto& adm : aq.Release(finished)) {
      if (adm.qid == 2) {
        writer_admitted_after = round;
      } else {
        running.push_back(adm.qid);
      }
    }
    if (writer_admitted_after >= 0) break;
  }
  // The writer must be admitted after a bounded number of bypasses; with
  // one overlapping reader per round the bound is ~kMaxSkips rounds plus
  // the drain of already-admitted readers.
  ASSERT_GE(writer_admitted_after, 0) << "writer starved";
  EXPECT_LE(writer_admitted_after, 2 * kMaxSkips + 2);
  EXPECT_GT(aq.requeue_failures(), 0u);
}

TEST(AdmissionQueueTest, StarvedWaiterBarsConflictingNewcomers) {
  AdmissionQueue aq(/*max_admission_skips=*/1);
  EXPECT_TRUE(aq.Submit(1, {"a"}, {}));
  EXPECT_FALSE(aq.Submit(2, {}, {"a"}));  // Writer waits, 0 skips.
  EXPECT_TRUE(aq.Submit(3, {"a"}, {}));   // Bypasses the writer: 1 skip.
  // The writer reached max skips: later conflicting queries must queue
  // behind it even though the lock table would admit this reader.
  EXPECT_FALSE(aq.Submit(4, {"a"}, {}));
  // Unrelated work is unaffected by the barrier.
  EXPECT_TRUE(aq.Submit(5, {}, {"b"}));
  // Readers drain; the writer goes first, then the barred reader.
  EXPECT_TRUE(aq.Release(1).empty());
  auto after = aq.Release(3);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].qid, 2u);
  auto tail = aq.Release(2);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].qid, 4u);
}

TEST(AdmissionQueueTest, CancelRemovesWaiter) {
  AdmissionQueue aq;
  EXPECT_TRUE(aq.Submit(1, {}, {"a"}));
  EXPECT_FALSE(aq.Submit(2, {}, {"a"}));
  EXPECT_TRUE(aq.Cancel(2));
  EXPECT_FALSE(aq.Cancel(2));  // Already gone.
  EXPECT_TRUE(aq.Release(1).empty());
}

TEST(AdmissionQueueTest, CancelAllDrainsTheQueue) {
  AdmissionQueue aq;
  EXPECT_TRUE(aq.Submit(1, {}, {"a"}));
  EXPECT_FALSE(aq.Submit(2, {}, {"a"}));
  EXPECT_FALSE(aq.Submit(3, {"a"}, {}));
  auto cancelled = aq.CancelAll();
  ASSERT_EQ(cancelled.size(), 2u);
  EXPECT_EQ(cancelled[0], 2u);
  EXPECT_EQ(cancelled[1], 3u);
  EXPECT_EQ(aq.queued(), 0u);
  EXPECT_TRUE(aq.Release(1).empty());
}

}  // namespace
}  // namespace dfdb
