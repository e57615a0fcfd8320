#include "workload/taskset.hpp"

#include <gtest/gtest.h>

#include "dnn/builders.hpp"

namespace sgprs::workload {
namespace {

TEST(UUniFast, SumsExactlyToTotal) {
  common::Rng rng(3);
  for (int n : {1, 2, 5, 20}) {
    const auto u = uunifast(n, 2.5, rng);
    ASSERT_EQ(static_cast<int>(u.size()), n);
    double sum = 0.0;
    for (double x : u) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 2.5, 1e-9);
  }
}

TEST(UUniFast, DeterministicPerRngState) {
  common::Rng a(9);
  common::Rng b(9);
  EXPECT_EQ(uunifast(8, 1.0, a), uunifast(8, 1.0, b));
}

TEST(UUniFast, DistributionNotDegenerate) {
  common::Rng rng(5);
  const auto u = uunifast(16, 4.0, rng);
  const auto [mn, mx] = std::minmax_element(u.begin(), u.end());
  EXPECT_LT(*mn, *mx) << "samples must differ";
}

TEST(UUniFast, InvalidArgsThrow) {
  common::Rng rng(1);
  EXPECT_THROW(uunifast(0, 1.0, rng), common::CheckError);
  EXPECT_THROW(uunifast(3, 0.0, rng), common::CheckError);
}

class TasksetTest : public ::testing::Test {
 protected:
  TasksetTest()
      : profiler_(gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                  dnn::CostModel::calibrated()) {}
  dnn::Profiler profiler_;
};

TEST_F(TasksetTest, BuildsRequestedCount) {
  RandomTaskSetConfig cfg;
  cfg.count = 10;
  const auto tasks = build_random_taskset(cfg, profiler_, {34});
  ASSERT_EQ(tasks.size(), 10u);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(tasks[i].id, static_cast<int>(i));
    EXPECT_GT(tasks[i].stage_count(), 0);
    EXPECT_GE(tasks[i].phase, common::SimTime::zero());
    EXPECT_LT(tasks[i].phase, tasks[i].period);
  }
}

TEST_F(TasksetTest, RatesClampedToConfiguredRange) {
  RandomTaskSetConfig cfg;
  cfg.count = 12;
  cfg.min_fps = 10.0;
  cfg.max_fps = 50.0;
  const auto tasks = build_random_taskset(cfg, profiler_, {34});
  for (const auto& t : tasks) {
    const double fps = 1.0 / t.period.to_sec();
    EXPECT_GE(fps, 10.0 - 1e-6);
    EXPECT_LE(fps, 50.0 + 1e-6);
  }
}

TEST_F(TasksetTest, SeedReproducible) {
  RandomTaskSetConfig cfg;
  cfg.count = 6;
  const auto a = build_random_taskset(cfg, profiler_, {34});
  const auto b = build_random_taskset(cfg, profiler_, {34});
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].period, b[i].period);
    EXPECT_EQ(a[i].phase, b[i].phase);
    EXPECT_EQ(a[i].network->name(), b[i].network->name());
  }
}

TEST_F(TasksetTest, DifferentSeedsDiffer) {
  RandomTaskSetConfig cfg;
  cfg.count = 6;
  const auto a = build_random_taskset(cfg, profiler_, {34});
  cfg.seed = 1234;
  const auto b = build_random_taskset(cfg, profiler_, {34});
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff |= a[i].period != b[i].period;
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(TasksetTest, UtilizationRoughlyTracksTarget) {
  // The clamp distorts the tails, but mid-range targets should land near.
  RandomTaskSetConfig cfg;
  cfg.count = 12;
  cfg.total_utilization = 2.0;
  cfg.min_fps = 0.5;
  cfg.max_fps = 10000.0;  // effectively unclamped
  const auto tasks = build_random_taskset(cfg, profiler_, {34});
  double total_u = 0.0;
  for (const auto& t : tasks) {
    total_u += t.wcet().total_at(34).to_sec() / t.period.to_sec();
  }
  EXPECT_NEAR(total_u, 2.0, 0.05);
}

TEST_F(TasksetTest, CustomNetworkChoices) {
  RandomTaskSetConfig cfg;
  cfg.count = 5;
  cfg.network_choices = {[] { return dnn::lenet5(); }};
  cfg.num_stages = 2;
  const auto tasks = build_random_taskset(cfg, profiler_, {34});
  for (const auto& t : tasks) {
    EXPECT_EQ(t.network->name(), "lenet5");
    EXPECT_EQ(t.stage_count(), 2);
  }
}

}  // namespace
}  // namespace sgprs::workload
