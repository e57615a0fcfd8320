#include "dnn/profiler.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dnn/builders.hpp"

namespace sgprs::dnn {
namespace {

class ProfilerTest : public ::testing::Test {
 protected:
  ProfilerTest()
      : prof_(gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
              CostModel::calibrated()) {}
  Profiler prof_;
};

TEST_F(ProfilerTest, LayerTimeDecreasesWithSms) {
  const auto net = resnet18();
  const auto& conv1 = net.layer(0);
  const auto t1 = prof_.layer_time(conv1, 1);
  const auto t34 = prof_.layer_time(conv1, 34);
  const auto t68 = prof_.layer_time(conv1, 68);
  EXPECT_GT(t1, t34);
  EXPECT_GT(t34, t68);
}

TEST_F(ProfilerTest, StageTimeIsSumOfLayerTimes) {
  const auto net = resnet18();
  const auto plan =
      partition_into_stages(net, prof_.cost_model(), 6);
  common::SimTime sum = common::SimTime::zero();
  for (NodeId id : plan.stages[2]) {
    sum += prof_.layer_time(net.layer(id), 23);
  }
  EXPECT_EQ(prof_.stage_time(net, plan.stages[2], 23), sum);
}

TEST_F(ProfilerTest, WcetTableCoversAllStagesAndSizes) {
  const auto net = resnet18();
  const auto plan = partition_into_stages(net, prof_.cost_model(), 6);
  const auto table = prof_.profile(net, plan, {23, 34, 45, 51, 68});
  EXPECT_EQ(table.stage_count(), 6);
  for (int s = 0; s < 6; ++s) {
    for (int sms : {23, 34, 45, 51, 68}) {
      EXPECT_GT(table.stage_at(s, sms).ns, 0);
    }
  }
  // Totals are stage sums.
  for (int sms : {23, 68}) {
    common::SimTime sum = common::SimTime::zero();
    for (int s = 0; s < 6; ++s) sum += table.stage_at(s, sms);
    EXPECT_EQ(table.total_at(sms), sum);
  }
}

TEST_F(ProfilerTest, UnprofiledSmSizeThrows) {
  const auto net = resnet18();
  const auto plan = partition_into_stages(net, prof_.cost_model(), 2);
  const auto table = prof_.profile(net, plan, {34});
  EXPECT_THROW(table.stage_at(0, 17), common::CheckError);
  EXPECT_THROW(table.total_at(68), common::CheckError);
}

TEST_F(ProfilerTest, FlatTableMatchesStageTimeAtEveryListedSize) {
  // Pool sizes arrive in first-seen order and may repeat (one entry per
  // context); the table keeps each size once, in that order, and every
  // (stage, size) cell is the profiler's own stage time.
  const auto net = resnet18();
  const auto plan = partition_into_stages(net, prof_.cost_model(), 6);
  const std::vector<int> listed = {45, 23, 45, 68, 23};
  const auto table = prof_.profile(net, plan, listed);
  EXPECT_EQ(table.sm_sizes, (std::vector<int>{45, 23, 68}));
  EXPECT_EQ(table.stage_count(), plan.stage_count());
  EXPECT_EQ(table.stage_times.size(), 6u * 3u);
  for (int sms : listed) {
    common::SimTime sum = common::SimTime::zero();
    for (int s = 0; s < plan.stage_count(); ++s) {
      const auto expected = prof_.stage_time(net, plan.stages[s], sms);
      EXPECT_EQ(table.stage_at(s, sms), expected)
          << "stage " << s << " at " << sms << " SMs";
      sum += expected;
    }
    EXPECT_EQ(table.total_at(sms), sum) << sms << " SMs";
  }
  EXPECT_THROW(table.stage_at(0, 34), common::CheckError);
  EXPECT_THROW(table.total_at(34), common::CheckError);
  EXPECT_THROW(table.stage_at(6, 45), common::CheckError);
  try {
    (void)table.stage_at(0, 34);
  } catch (const common::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("no WCET profiled for 34 SMs"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ProfilerTest, AnalyticMatchesSimulatedIsolation) {
  // The analytic WCET must agree with actually running the kernels through
  // the executor in an isolated context — this pins the two code paths
  // together, like validating a model against the testbed.
  const auto net = resnet18();
  const auto plan = partition_into_stages(net, prof_.cost_model(), 6);
  for (int sms : {23, 34, 68}) {
    for (int s = 0; s < plan.stage_count(); ++s) {
      const auto analytic = prof_.stage_time(net, plan.stages[s], sms);
      const auto simulated =
          prof_.stage_time_simulated(net, plan.stages[s], sms);
      EXPECT_NEAR(simulated.to_sec(), analytic.to_sec(),
                  1e-6 * analytic.to_sec() + 1e-6)
          << "stage " << s << " at " << sms << " SMs";
    }
  }
}

TEST_F(ProfilerTest, NetworkSpeedupReproducesFig1Shape) {
  const auto net = resnet18();
  // Monotone increasing in SMs...
  double prev = 0.0;
  for (int sms : {1, 2, 4, 8, 17, 34, 51, 68}) {
    const double s = prof_.network_speedup(net, sms);
    EXPECT_GT(s, prev);
    prev = s;
  }
  // ...but bounded by the conv curve (conv is the best-scaling op).
  EXPECT_LT(prev, 32.0);
}

TEST_F(ProfilerTest, MlpScalesWorstOfTheZoo) {
  // An MLP has no convs, so its end-to-end speedup should be far below
  // ResNet18's — the paper's Fig. 1 point that "other operations" cap out.
  const double mlp = prof_.network_speedup(mlp3(), 68);
  const double res = prof_.network_speedup(resnet18(), 68);
  EXPECT_LT(mlp, 8.0);
  EXPECT_GT(res, 2.0 * mlp);
}

}  // namespace
}  // namespace sgprs::dnn
