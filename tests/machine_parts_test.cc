/// \file machine_parts_test.cc
/// \brief Tests for the machine simulator's building blocks: event queue,
/// resources, and plan -> instruction compilation.

#include <gtest/gtest.h>

#include "machine/event_queue.h"
#include "machine/instruction.h"
#include "machine/resources.h"
#include "tests/test_util.h"

namespace dfdb {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.ScheduleAt(SimTime::Millis(3), [&] { order.push_back(3); });
  eq.ScheduleAt(SimTime::Millis(1), [&] { order.push_back(1); });
  eq.ScheduleAt(SimTime::Millis(2), [&] { order.push_back(2); });
  EXPECT_EQ(eq.RunToCompletion(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.now(), SimTime::Millis(3));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eq.ScheduleAt(SimTime::Millis(1), [&order, i] { order.push_back(i); });
  }
  eq.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, EventsMayScheduleEvents) {
  EventQueue eq;
  int fired = 0;
  std::function<void(int)> chain = [&](int depth) {
    ++fired;
    if (depth > 0) {
      eq.ScheduleAfter(SimTime::Micros(10), [&chain, depth] { chain(depth - 1); });
    }
  };
  eq.ScheduleAt(SimTime::Zero(), [&chain] { chain(9); });
  EXPECT_EQ(eq.RunToCompletion(), 10u);
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(eq.now(), SimTime::Micros(90));
}

TEST(EventQueueTest, PastSchedulingClampsToNow) {
  EventQueue eq;
  SimTime observed;
  eq.ScheduleAt(SimTime::Millis(5), [&] {
    eq.ScheduleAt(SimTime::Millis(1), [&] { observed = eq.now(); });
  });
  eq.RunToCompletion();
  EXPECT_EQ(observed, SimTime::Millis(5));  // Not in the past.
}

TEST(EventQueueTest, MaxEventsBounds) {
  EventQueue eq;
  std::function<void()> forever = [&] {
    eq.ScheduleAfter(SimTime::Nanos(1), forever);
  };
  eq.ScheduleAt(SimTime::Zero(), forever);
  EXPECT_EQ(eq.RunToCompletion(100), 100u);
  EXPECT_FALSE(eq.empty());
}

TEST(SerialResourceTest, SerializesOverlappingJobs) {
  SerialResource r;
  // Job A at t=0 for 10ms, job B at t=5 must wait until 10.
  EXPECT_EQ(r.Acquire(SimTime::Zero(), SimTime::Millis(10)),
            SimTime::Millis(10));
  EXPECT_EQ(r.Acquire(SimTime::Millis(5), SimTime::Millis(3)),
            SimTime::Millis(13));
  // Idle gap: job C at t=20 starts immediately.
  EXPECT_EQ(r.Acquire(SimTime::Millis(20), SimTime::Millis(1)),
            SimTime::Millis(21));
  EXPECT_EQ(r.busy_time(), SimTime::Millis(14));
}

TEST(LruPageSetTest, TouchInsertEvict) {
  LruPageSet lru(2);
  lru.Insert(1);
  lru.Insert(2);
  EXPECT_TRUE(lru.Touch(1));  // 1 becomes MRU.
  std::vector<uint64_t> evicted;
  lru.InsertEvict(3, &evicted);
  EXPECT_EQ(evicted, (std::vector<uint64_t>{2}));
  EXPECT_TRUE(lru.Contains(1));
  EXPECT_FALSE(lru.Contains(2));
  EXPECT_TRUE(lru.Contains(3));
  EXPECT_TRUE(lru.Remove(1));
  EXPECT_FALSE(lru.Remove(1));
  EXPECT_EQ(lru.size(), 1u);
}

TEST(LruPageSetTest, ZeroCapacityHoldsNothing) {
  LruPageSet lru(0);
  lru.Insert(1);
  EXPECT_FALSE(lru.Contains(1));
  EXPECT_EQ(lru.size(), 0u);
}

// ---------------------------------------------------------------------------
// Instruction compilation
// ---------------------------------------------------------------------------

class CompileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema = Schema::CreateOrDie({Column::Int32("k"), Column::Int32("g")});
    ASSERT_OK_AND_ASSIGN(auto a, catalog_.CreateRelation("a", schema));
    ASSERT_OK_AND_ASSIGN(auto b, catalog_.CreateRelation("b", schema));
    (void)a;
    (void)b;
  }
  Catalog catalog_;
};

TEST_F(CompileTest, ScansBecomeBaseOperands) {
  auto plan = MakeJoin(MakeRestrict(MakeScan("a"), Lt(Col("k"), Lit(5))),
                       MakeScan("b"), Eq(Col("k"), RightCol("k")));
  ASSERT_OK_AND_ASSIGN(MachineProgram prog,
                       CompileProgram(catalog_, {plan.get()}));
  // Two instructions: the restrict and the join (scans are absorbed).
  ASSERT_EQ(prog.instructions.size(), 2u);
  const MachineInstruction& restrict_i = prog.instructions[0];
  const MachineInstruction& join_i = prog.instructions[1];
  EXPECT_EQ(restrict_i.op, PlanOp::kRestrict);
  ASSERT_EQ(restrict_i.operands.size(), 1u);
  ASSERT_NE(restrict_i.operands[0].scan, nullptr);
  EXPECT_EQ(restrict_i.operands[0].scan->relation, "a");
  EXPECT_EQ(restrict_i.consumer, join_i.id);
  EXPECT_EQ(restrict_i.consumer_slot, 0);

  EXPECT_EQ(join_i.op, PlanOp::kJoin);
  ASSERT_EQ(join_i.operands.size(), 2u);
  EXPECT_EQ(join_i.operands[0].scan, nullptr);
  EXPECT_EQ(join_i.operands[0].producer, restrict_i.id);
  ASSERT_NE(join_i.operands[1].scan, nullptr);
  EXPECT_EQ(join_i.operands[1].scan->relation, "b");
  EXPECT_EQ(join_i.consumer, -1);  // Root: results to the host.
  EXPECT_EQ(prog.roots, (std::vector<int>{join_i.id}));
}

TEST_F(CompileTest, BareScanWrappedInRestrict) {
  auto plan = MakeScan("a");
  ASSERT_OK_AND_ASSIGN(MachineProgram prog,
                       CompileProgram(catalog_, {plan.get()}));
  ASSERT_EQ(prog.instructions.size(), 1u);
  EXPECT_EQ(prog.instructions[0].op, PlanOp::kRestrict);
  EXPECT_NE(prog.instructions[0].operands[0].scan, nullptr);
}

TEST_F(CompileTest, BarrierFlagging) {
  auto dedup = MakeProject(MakeScan("a"), {"k"}, /*dedup=*/true);
  auto plain = MakeProject(MakeScan("a"), {"k"}, /*dedup=*/false);
  auto agg = MakeAggregate(MakeScan("a"), {},
                           {{AggregateSpec::Func::kCount, "", "c"}});
  auto bag_union = MakeUnion(MakeScan("a"), MakeScan("b"), true);
  auto set_union = MakeUnion(MakeScan("a"), MakeScan("b"), false);
  ASSERT_OK_AND_ASSIGN(
      MachineProgram prog,
      CompileProgram(catalog_, {dedup.get(), plain.get(), agg.get(),
                                bag_union.get(), set_union.get()}));
  ASSERT_EQ(prog.instructions.size(), 5u);
  EXPECT_TRUE(prog.instructions[0].barrier);
  EXPECT_FALSE(prog.instructions[1].barrier);
  EXPECT_TRUE(prog.instructions[2].barrier);
  EXPECT_FALSE(prog.instructions[3].barrier);
  EXPECT_TRUE(prog.instructions[4].barrier);
}

TEST_F(CompileTest, DeleteGetsBaseOperand) {
  auto plan = MakeDelete("a", Lt(Col("k"), Lit(5)));
  ASSERT_OK_AND_ASSIGN(MachineProgram prog,
                       CompileProgram(catalog_, {plan.get()}));
  ASSERT_EQ(prog.instructions.size(), 1u);
  ASSERT_EQ(prog.instructions[0].operands.size(), 1u);
  ASSERT_NE(prog.instructions[0].operands[0].scan, nullptr);
  EXPECT_EQ(prog.instructions[0].operands[0].scan->relation, "a");
}

TEST_F(CompileTest, MultiQueryNumbering) {
  auto q0 = MakeScan("a");
  auto q1 = MakeRestrict(MakeScan("b"), Lt(Col("k"), Lit(1)));
  ASSERT_OK_AND_ASSIGN(MachineProgram prog,
                       CompileProgram(catalog_, {q0.get(), q1.get()}));
  ASSERT_EQ(prog.roots.size(), 2u);
  EXPECT_EQ(prog.instructions[prog.roots[0]].query_index, 0u);
  EXPECT_EQ(prog.instructions[prog.roots[1]].query_index, 1u);
  EXPECT_EQ(prog.analyses.size(), 2u);
}

TEST_F(CompileTest, NullQueryRejected) {
  EXPECT_TRUE(CompileProgram(catalog_, {nullptr}).status().IsInvalidArgument());
}

}  // namespace
}  // namespace dfdb
