#include "gpu/context_pool.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"

namespace sgprs::gpu {
namespace {

int allocated_sms(const ContextPool& pool) {
  int total = 0;
  for (const auto& pc : pool.contexts()) total += pc.sm_limit;
  return total;
}

class ContextPoolTest : public ::testing::Test {
 protected:
  ContextPoolTest()
      : exec_(engine_, rtx2080ti(), SpeedupModel::rtx2080ti(),
              SharingParams{}) {}
  sim::Engine engine_;
  Executor exec_;
};

TEST_F(ContextPoolTest, SmsPerContextMatchesPaperScenarios) {
  // Scenario 1: 2 contexts. os=1.0 -> 34, os=1.5 -> 51, os=2.0 -> 68.
  EXPECT_EQ(ContextPool::sms_per_context(68, 2, 1.0), 34);
  EXPECT_EQ(ContextPool::sms_per_context(68, 2, 1.5), 51);
  EXPECT_EQ(ContextPool::sms_per_context(68, 2, 2.0), 68);
  // Scenario 2: 3 contexts. os=1.0 -> 23, os=1.5 -> 34, os=2.0 -> 45.
  EXPECT_EQ(ContextPool::sms_per_context(68, 3, 1.0), 23);
  EXPECT_EQ(ContextPool::sms_per_context(68, 3, 1.5), 34);
  EXPECT_EQ(ContextPool::sms_per_context(68, 3, 2.0), 45);
}

TEST_F(ContextPoolTest, ClampsToDeviceLimits) {
  EXPECT_EQ(ContextPool::sms_per_context(68, 1, 5.0), 68);
  EXPECT_EQ(ContextPool::sms_per_context(68, 200, 1.0), 1);
}

TEST_F(ContextPoolTest, HugeOversubscriptionClampsToTheWholeDevice) {
  // The per-context share is clamped before it becomes an integer, so an
  // absurd oversubscription still means "every SM", not a wrapped value.
  EXPECT_EQ(ContextPool::sms_per_context(68, 2, 1e9), 68);
  EXPECT_EQ(ContextPool::sms_per_context(68, 2, 1e308), 68);
}

TEST_F(ContextPoolTest, BuildsPaperStreamLayout) {
  ContextPoolConfig cfg;
  cfg.num_contexts = 2;
  cfg.oversubscription = 1.5;
  ContextPool pool(exec_, cfg);
  ASSERT_EQ(pool.size(), 2);
  EXPECT_EQ(exec_.context_count(), 2);
  EXPECT_EQ(exec_.stream_count(), 8);  // (2 high + 2 low) x 2 contexts
  for (const auto& pc : pool.contexts()) {
    EXPECT_EQ(pc.sm_limit, 51);
    ASSERT_EQ(pc.high_streams.size(), 2u);
    ASSERT_EQ(pc.low_streams.size(), 2u);
    for (auto s : pc.high_streams) {
      EXPECT_EQ(exec_.stream_priority(s), StreamPriority::kHigh);
      EXPECT_EQ(exec_.stream_context(s), pc.ctx);
    }
    for (auto s : pc.low_streams) {
      EXPECT_EQ(exec_.stream_priority(s), StreamPriority::kLow);
    }
  }
}

TEST_F(ContextPoolTest, OversubscribedPoolExceedsDevice) {
  ContextPoolConfig cfg;
  cfg.num_contexts = 3;
  cfg.oversubscription = 2.0;
  ContextPool pool(exec_, cfg);
  EXPECT_EQ(allocated_sms(pool), 135);  // 3 x 45 > 68
  EXPECT_GT(allocated_sms(pool), exec_.device_class().total_sms);
}

TEST_F(ContextPoolTest, NonOversubscribedPoolFitsDevice) {
  ContextPoolConfig cfg;
  cfg.num_contexts = 2;
  cfg.oversubscription = 1.0;
  ContextPool pool(exec_, cfg);
  EXPECT_LE(allocated_sms(pool), exec_.device_class().total_sms);
}

TEST_F(ContextPoolTest, CustomStreamCounts) {
  ContextPoolConfig cfg;
  cfg.num_contexts = 1;
  cfg.high_streams_per_context = 1;
  cfg.low_streams_per_context = 0;
  ContextPool pool(exec_, cfg);
  EXPECT_EQ(pool.at(0).high_streams.size(), 1u);
  EXPECT_TRUE(pool.at(0).low_streams.empty());
}

TEST_F(ContextPoolTest, SmLimitsMatchTheContextsARealPoolCreates) {
  // Callers that size a pool without building one (the cluster's device
  // types, cluster::pool_sm_sizes_for) get exactly what the pool creates.
  const auto real_limits = [](const DeviceSpec& spec,
                              const ContextPoolConfig& cfg) {
    sim::Engine engine;
    Executor exec(engine, spec, SpeedupModel::rtx2080ti(), SharingParams{});
    ContextPool pool(exec, cfg);
    std::vector<int> limits;
    for (const auto& pc : pool.contexts()) limits.push_back(pc.sm_limit);
    return limits;
  };
  for (const DeviceSpec& spec : {rtx2080ti(), rtx3090()}) {
    for (int contexts : {1, 2, 3}) {
      for (double oversub : {1.0, 1.5, 2.0, 1e9}) {
        ContextPoolConfig cfg;
        cfg.num_contexts = contexts;
        cfg.oversubscription = oversub;
        EXPECT_EQ(ContextPool::sm_limits(spec.total_sms, cfg),
                  real_limits(spec, cfg))
            << spec.name << ", " << contexts << " contexts, oversub "
            << oversub;
      }
    }
    ContextPoolConfig explicit_cfg;
    explicit_cfg.explicit_sm_limits = {40, 20, 68, 20};
    EXPECT_EQ(ContextPool::sm_limits(spec.total_sms, explicit_cfg),
              real_limits(spec, explicit_cfg))
        << spec.name << ", explicit limits";
  }
}

TEST_F(ContextPoolTest, RejectsInvalidConfigs) {
  ContextPoolConfig bad;
  bad.num_contexts = 0;
  EXPECT_THROW(ContextPool(exec_, bad), common::CheckError);
  ContextPoolConfig no_streams;
  no_streams.high_streams_per_context = 0;
  no_streams.low_streams_per_context = 0;
  EXPECT_THROW(ContextPool(exec_, no_streams), common::CheckError);
}

}  // namespace
}  // namespace sgprs::gpu
