#include "metrics/collector.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace sgprs::metrics {
namespace {

using common::SimTime;

TEST(Collector, CountsOnTimeAndLate) {
  Collector c;
  c.on_release(0, SimTime::from_ms(0));
  c.on_complete(0, SimTime::from_ms(0), SimTime::from_ms(33),
                SimTime::from_ms(10));  // on time
  c.on_release(0, SimTime::from_ms(33));
  c.on_complete(0, SimTime::from_ms(33), SimTime::from_ms(66),
                SimTime::from_ms(100));  // late
  const auto s = c.aggregate(SimTime::from_sec(1));
  EXPECT_EQ(s.counts.released, 2);
  EXPECT_EQ(s.counts.on_time, 1);
  EXPECT_EQ(s.counts.late, 1);
  EXPECT_DOUBLE_EQ(s.fps, 2.0);
  EXPECT_DOUBLE_EQ(s.fps_on_time, 1.0);
  EXPECT_DOUBLE_EQ(s.dmr, 0.5);
}

TEST(Collector, CompletionExactlyAtDeadlineIsOnTime) {
  Collector c;
  c.on_release(0, SimTime::zero());
  c.on_complete(0, SimTime::zero(), SimTime::from_ms(33),
                SimTime::from_ms(33));
  EXPECT_EQ(c.aggregate(SimTime::from_sec(1)).counts.on_time, 1);
}

TEST(Collector, DropsCountTowardDmr) {
  Collector c;
  for (int i = 0; i < 4; ++i) c.on_release(0, SimTime::from_ms(i));
  c.on_drop(0, SimTime::from_ms(1));
  c.on_drop(0, SimTime::from_ms(2));
  c.on_complete(0, SimTime::from_ms(0), SimTime::from_ms(40),
                SimTime::from_ms(10));
  c.on_complete(0, SimTime::from_ms(3), SimTime::from_ms(40),
                SimTime::from_ms(12));
  const auto s = c.aggregate(SimTime::from_sec(1));
  EXPECT_EQ(s.counts.dropped, 2);
  EXPECT_DOUBLE_EQ(s.dmr, 0.5);  // 2 drops / 4 closed
}

TEST(Collector, WarmupExcludesEarlyJobs) {
  Collector c(SimTime::from_ms(100));
  c.on_release(0, SimTime::from_ms(50));  // pre-warm-up: ignored
  c.on_complete(0, SimTime::from_ms(50), SimTime::from_ms(90),
                SimTime::from_ms(80));
  c.on_release(0, SimTime::from_ms(150));
  c.on_complete(0, SimTime::from_ms(150), SimTime::from_ms(200),
                SimTime::from_ms(160));
  const auto s = c.aggregate(SimTime::from_ms(1100));
  EXPECT_EQ(s.counts.released, 1);
  EXPECT_EQ(s.counts.completed(), 1);
  EXPECT_DOUBLE_EQ(s.fps, 1.0);  // window is exactly one second
}

TEST(Collector, JobReleasedAtWarmupBoundaryCounts) {
  Collector c(SimTime::from_ms(100));
  c.on_release(0, SimTime::from_ms(100));
  EXPECT_EQ(c.aggregate(SimTime::from_ms(200)).counts.released, 1);
}

TEST(Collector, LatencyStatistics) {
  Collector c;
  for (int i = 1; i <= 100; ++i) {
    const auto rel = SimTime::from_ms(i);
    c.on_release(0, rel);
    c.on_complete(0, rel, rel + SimTime::from_ms(1000),
                  rel + SimTime::from_ms(i));  // latency = i ms
  }
  const auto s = c.aggregate(SimTime::from_sec(2));
  EXPECT_NEAR(s.mean_latency_ms, 50.5, 1e-9);
  EXPECT_NEAR(s.p50_latency_ms, 50.5, 1.0);
  EXPECT_NEAR(s.p99_latency_ms, 99.0, 1.1);
  EXPECT_DOUBLE_EQ(s.max_latency_ms, 100.0);
}

TEST(Collector, PerTaskSeparation) {
  Collector c;
  c.on_release(1, SimTime::zero());
  c.on_complete(1, SimTime::zero(), SimTime::from_ms(10),
                SimTime::from_ms(5));
  c.on_release(2, SimTime::zero());
  c.on_drop(2, SimTime::zero());
  const auto end = SimTime::from_sec(1);
  EXPECT_DOUBLE_EQ(c.per_task(1, end).dmr, 0.0);
  EXPECT_DOUBLE_EQ(c.per_task(2, end).dmr, 1.0);
  EXPECT_TRUE(c.has_task(1));
  EXPECT_TRUE(c.has_task(2));
  EXPECT_FALSE(c.has_task(0));
  EXPECT_FALSE(c.has_task(3));
  EXPECT_THROW(c.per_task(3, end), common::CheckError);
}

TEST(Collector, AggregatePoolsAcrossTasks) {
  Collector c;
  for (int t = 0; t < 3; ++t) {
    c.on_release(t, SimTime::zero());
    c.on_complete(t, SimTime::zero(), SimTime::from_ms(100),
                  SimTime::from_ms(10 * (t + 1)));
  }
  const auto s = c.aggregate(SimTime::from_sec(1));
  EXPECT_EQ(s.counts.completed(), 3);
  EXPECT_NEAR(s.mean_latency_ms, 20.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.max_latency_ms, 30.0);
}

TEST(Collector, EmptyWindowThrows) {
  Collector c(SimTime::from_sec(1));
  EXPECT_THROW(c.aggregate(SimTime::from_sec(1)), common::CheckError);
}

TEST(Collector, NoEventsGivesZeroSnapshot) {
  Collector c;
  const auto s = c.aggregate(SimTime::from_sec(1));
  EXPECT_EQ(s.counts.released, 0);
  EXPECT_DOUBLE_EQ(s.fps, 0.0);
  EXPECT_DOUBLE_EQ(s.dmr, 0.0);
}

}  // namespace
}  // namespace sgprs::metrics
