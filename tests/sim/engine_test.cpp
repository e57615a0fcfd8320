#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sgprs::sim {
namespace {

using common::SimTime;

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), SimTime::zero());
  EXPECT_FALSE(e.has_pending());
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(SimTime::from_ms(3), [&] { order.push_back(3); });
  e.schedule_at(SimTime::from_ms(1), [&] { order.push_back(1); });
  e.schedule_at(SimTime::from_ms(2), [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), SimTime::from_ms(3));
}

TEST(Engine, SameTimeEventsFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(SimTime::from_ms(5), [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine e;
  SimTime fired = SimTime::zero();
  e.schedule_at(SimTime::from_ms(10), [&] {
    e.schedule_after(SimTime::from_ms(5), [&] { fired = e.now(); });
  });
  e.run();
  EXPECT_EQ(fired, SimTime::from_ms(15));
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  const auto id = e.schedule_at(SimTime::from_ms(1), [&] { ran = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, CancelIsIdempotent) {
  Engine e;
  const auto id = e.schedule_at(SimTime::from_ms(1), [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, CancelAfterFireReturnsFalse) {
  Engine e;
  const auto id = e.schedule_at(SimTime::from_ms(1), [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, SchedulingInPastThrows) {
  Engine e;
  e.schedule_at(SimTime::from_ms(10), [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(SimTime::from_ms(5), [] {}),
               common::CheckError);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine e;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 100) e.schedule_after(SimTime::from_us(10), chain);
  };
  e.schedule_at(SimTime::zero(), chain);
  e.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(e.now(), SimTime::from_us(990));
}

TEST(Engine, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine e;
  int fired = 0;
  e.schedule_at(SimTime::from_ms(1), [&] { ++fired; });
  e.schedule_at(SimTime::from_ms(2), [&] { ++fired; });
  e.schedule_at(SimTime::from_ms(10), [&] { ++fired; });
  e.run_until(SimTime::from_ms(5));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), SimTime::from_ms(5));
  EXPECT_TRUE(e.has_pending());
  e.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, RunUntilIncludesEventsAtBoundary) {
  Engine e;
  bool ran = false;
  e.schedule_at(SimTime::from_ms(5), [&] { ran = true; });
  e.run_until(SimTime::from_ms(5));
  EXPECT_TRUE(ran);
}

TEST(Engine, HorizonIsTheRunUntilTargetWhileItRuns) {
  Engine e;
  EXPECT_TRUE(e.horizon().is_max());
  std::vector<SimTime> seen;
  const auto record = [&] { seen.push_back(e.horizon()); };
  e.schedule_at(SimTime::from_ms(1), record);
  e.schedule_at(SimTime::from_ms(5), record);  // at the target: still in
  e.schedule_at(SimTime::from_ms(8), record);
  e.run_until(SimTime::from_ms(5));
  EXPECT_EQ(seen, (std::vector<SimTime>{SimTime::from_ms(5),
                                        SimTime::from_ms(5)}));
  // Between runs, and under step() and run(), there is no target.
  EXPECT_TRUE(e.horizon().is_max());
  e.schedule_at(SimTime::from_ms(9), record);
  EXPECT_TRUE(e.step());
  e.run();
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen[2].is_max());
  EXPECT_TRUE(seen[3].is_max());
  EXPECT_TRUE(e.horizon().is_max());
}

TEST(Engine, HorizonResetsWhenAHandlerThrows) {
  Engine e;
  e.schedule_at(SimTime::from_ms(1), [] { SGPRS_CHECK(false); });
  EXPECT_THROW(e.run_until(SimTime::from_ms(3)), common::CheckError);
  EXPECT_TRUE(e.horizon().is_max());
  // An empty run still sets it for its duration only.
  e.run_until(SimTime::from_ms(4));
  EXPECT_EQ(e.now(), SimTime::from_ms(4));
  EXPECT_TRUE(e.horizon().is_max());
}

TEST(Engine, NextEventTimeSkipsCancelled) {
  Engine e;
  const auto id = e.schedule_at(SimTime::from_ms(1), [] {});
  e.schedule_at(SimTime::from_ms(7), [] {});
  e.cancel(id);
  EXPECT_EQ(e.next_event_time(), SimTime::from_ms(7));
}

TEST(Engine, NextEventTimeEmptyIsMax) {
  Engine e;
  EXPECT_TRUE(e.next_event_time().is_max());
}

TEST(Engine, ProcessedCountTracksFiredEvents) {
  Engine e;
  for (int i = 0; i < 5; ++i) {
    e.schedule_at(SimTime::from_ms(i + 1), [] {});
  }
  e.run();
  EXPECT_EQ(e.processed_count(), 5u);
}

TEST(Engine, StepProcessesExactlyOne) {
  Engine e;
  int fired = 0;
  e.schedule_at(SimTime::from_ms(1), [&] { ++fired; });
  e.schedule_at(SimTime::from_ms(2), [&] { ++fired; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(e.step());
}

TEST(Engine, ManyEventsStressOrdering) {
  Engine e;
  SimTime last = SimTime::zero();
  bool monotone = true;
  for (int i = 0; i < 20000; ++i) {
    // Scatter times with a multiplicative hash pattern.
    const auto t = SimTime::from_ns((i * 2654435761u) % 1000000);
    e.schedule_at(t, [&, t] {
      if (e.now() < last) monotone = false;
      last = e.now();
    });
  }
  e.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(e.processed_count(), 20000u);
}

}  // namespace
}  // namespace sgprs::sim
