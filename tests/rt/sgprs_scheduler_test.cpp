#include "rt/sgprs_scheduler.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "dnn/builders.hpp"
#include "rt/runner.hpp"
#include "sim/engine.hpp"

namespace sgprs::rt {
namespace {

using common::SimTime;

// Fixture wiring a full SGPRS stack over a 2-context paper pool.
class SgprsTest : public ::testing::Test {
 protected:
  SgprsTest() { rebuild(1.0); }

  void rebuild(double oversub, gpu::SharingParams sharing = {}) {
    engine_ = std::make_unique<sim::Engine>();
    exec_ = std::make_unique<gpu::Executor>(
        *engine_, gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(), sharing);
    gpu::ContextPoolConfig pc;
    pc.num_contexts = 2;
    pc.oversubscription = oversub;
    pool_ = std::make_unique<gpu::ContextPool>(*exec_, pc);
    collector_ = std::make_unique<metrics::Collector>();
  }

  Task make_task(int id, TaskConfig cfg = {}) {
    if (!network_) {
      network_ = std::make_shared<const dnn::Network>(dnn::resnet18());
    }
    dnn::Profiler prof(gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                       dnn::CostModel::calibrated());
    return build_task(id, network_, cfg, prof, {pool_->at(0).sm_limit});
  }

  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<gpu::Executor> exec_;
  std::unique_ptr<gpu::ContextPool> pool_;
  std::unique_ptr<metrics::Collector> collector_;
  std::shared_ptr<const dnn::Network> network_;
};

TEST_F(SgprsTest, SingleJobCompletesOnTime) {
  SgprsScheduler sched(*exec_, *pool_, *collector_);
  const Task task = make_task(0);
  sched.admit(task, task.id);
  sched.release_job(task, task.id, SimTime::zero());
  EXPECT_EQ(sched.jobs_in_flight(), 1);
  engine_->run();
  EXPECT_EQ(sched.jobs_in_flight(), 0);
  const auto s = collector_->aggregate(SimTime::from_ms(100));
  EXPECT_EQ(s.counts.on_time, 1);
  EXPECT_EQ(s.counts.late, 0);
  // A lone ResNet18 job on a 34-SM context with no contention takes a few
  // milliseconds — far under the 33 ms deadline.
  EXPECT_LT(s.max_latency_ms, 10.0);
}

TEST_F(SgprsTest, InFlightCapDropsExcessReleases) {
  SgprsConfig cfg;
  cfg.max_in_flight_per_task = 1;
  SgprsScheduler sched(*exec_, *pool_, *collector_, cfg);
  const Task task = make_task(0);
  sched.admit(task, task.id);
  sched.release_job(task, task.id, SimTime::zero());
  sched.release_job(task, task.id, SimTime::zero());  // same instant: must drop
  EXPECT_EQ(sched.jobs_in_flight(), 1);
  engine_->run();
  const auto s = collector_->aggregate(SimTime::from_ms(100));
  EXPECT_EQ(s.counts.dropped, 1);
  EXPECT_EQ(s.counts.completed(), 1);
}

TEST_F(SgprsTest, AllStagesExecuteExactlyOnce) {
  SgprsScheduler sched(*exec_, *pool_, *collector_);
  const Task task = make_task(0);
  sched.admit(task, task.id);
  sched.release_job(task, task.id, SimTime::zero());
  engine_->run();
  // Work conservation through the whole stack: total kernel work equals
  // one full network traversal.
  const auto cost = dnn::CostModel::calibrated();
  double expected = 0.0;
  for (int i = 0; i < network_->node_count(); ++i) {
    expected += cost.work_seconds(network_->layer(i));
  }
  EXPECT_NEAR(exec_->total_work_done(), expected, 1e-9);
}

TEST_F(SgprsTest, SeamlessMigrationAcrossContexts) {
  // With several tasks in flight, consecutive stages of a job should land
  // on different contexts at least sometimes — the zero-configuration
  // switch SGPRS is named for.
  SgprsScheduler sched(*exec_, *pool_, *collector_);
  std::vector<Task> tasks;
  for (int i = 0; i < 6; ++i) tasks.push_back(make_task(i));
  for (auto& t : tasks) sched.admit(t, t.id);
  for (auto& t : tasks) sched.release_job(t, t.id, SimTime::zero());
  engine_->run();
  EXPECT_GT(sched.stage_migrations(), 0);
}

TEST_F(SgprsTest, MediumPromotionsHappenUnderOverload) {
  // Enough tasks to blow virtual deadlines -> late chains get promoted.
  SgprsScheduler sched(*exec_, *pool_, *collector_);
  std::vector<Task> tasks;
  for (int i = 0; i < 26; ++i) tasks.push_back(make_task(i));
  for (auto& t : tasks) sched.admit(t, t.id);
  // Release everything at once: a worst-case burst.
  for (auto& t : tasks) sched.release_job(t, t.id, SimTime::zero());
  engine_->run();
  EXPECT_GT(sched.medium_promotions(), 0);
}

TEST_F(SgprsTest, MediumBoostCanBeDisabled) {
  SgprsConfig cfg;
  cfg.medium_boost = false;
  SgprsScheduler sched(*exec_, *pool_, *collector_, cfg);
  std::vector<Task> tasks;
  for (int i = 0; i < 26; ++i) tasks.push_back(make_task(i));
  for (auto& t : tasks) sched.admit(t, t.id);
  for (auto& t : tasks) sched.release_job(t, t.id, SimTime::zero());
  engine_->run();
  EXPECT_EQ(sched.medium_promotions(), 0);
}

TEST_F(SgprsTest, BurstCompletesEverythingEventually) {
  // Jobs are never lost: every release either drops or completes.
  SgprsScheduler sched(*exec_, *pool_, *collector_);
  std::vector<Task> tasks;
  for (int i = 0; i < 20; ++i) tasks.push_back(make_task(i));
  for (auto& t : tasks) sched.admit(t, t.id);
  for (auto& t : tasks) sched.release_job(t, t.id, SimTime::zero());
  engine_->run();
  EXPECT_EQ(sched.jobs_in_flight(), 0);
  const auto s = collector_->aggregate(SimTime::from_sec(1));
  EXPECT_EQ(s.counts.released,
            s.counts.completed() + s.counts.dropped);
  EXPECT_EQ(s.counts.released, 20);
}

TEST_F(SgprsTest, EmptyQueueCriterionSpreadsBurst) {
  // Two stages released back to back while both contexts are empty must
  // not pile onto one context.
  SgprsScheduler sched(*exec_, *pool_, *collector_);
  Task t0 = make_task(0);
  Task t1 = make_task(1);
  sched.admit(t0, t0.id);
  sched.admit(t1, t1.id);
  sched.release_job(t0, t0.id, SimTime::zero());
  sched.release_job(t1, t1.id, SimTime::zero());
  // Both contexts should be executing something right now.
  EXPECT_EQ(exec_->context_running_count(0) > 0, true);
  EXPECT_EQ(exec_->context_running_count(1) > 0, true);
  engine_->run();
}

TEST_F(SgprsTest, RoundRobinPolicyAlternates) {
  SgprsConfig cfg;
  cfg.assign_policy = ContextAssignPolicy::kRoundRobin;
  SgprsScheduler sched(*exec_, *pool_, *collector_, cfg);
  Task t0 = make_task(0);
  sched.admit(t0, t0.id);
  sched.release_job(t0, t0.id, SimTime::zero());
  engine_->run();
  // 6 stages round-robin over 2 contexts -> 5 hops alternate contexts.
  EXPECT_EQ(sched.stage_migrations(), 5);
}

TEST_F(SgprsTest, RandomPolicyIsSeedDeterministic) {
  auto run_once = [&](std::uint64_t seed) {
    rebuild(1.0);
    SgprsConfig cfg;
    cfg.assign_policy = ContextAssignPolicy::kRandom;
    cfg.rng_seed = seed;
    SgprsScheduler sched(*exec_, *pool_, *collector_, cfg);
    Task t0 = make_task(0);
    sched.admit(t0, t0.id);
    sched.release_job(t0, t0.id, SimTime::zero());
    engine_->run();
    return sched.stage_migrations();
  };
  EXPECT_EQ(run_once(5), run_once(5));
}

TEST_F(SgprsTest, HighPriorityLastStageUsesHighStream) {
  // Saturate the low streams of both contexts with long work; a
  // single-stage task (its only stage is the last stage, hence high
  // priority) must still complete via a high stream without waiting for
  // the queued low work.
  SgprsScheduler sched(*exec_, *pool_, *collector_);
  TaskConfig tcfg;
  tcfg.num_stages = 1;
  const Task task = make_task(0, tcfg);
  sched.admit(task, task.id);
  // Fill all four low streams directly at the executor level.
  gpu::KernelDesc blocker;
  blocker.op = gpu::OpClass::kConv;
  blocker.work_sm_seconds = 10.0;  // ~0.5+ s wall even at full context
  for (const auto& pc : pool_->contexts()) {
    for (auto s : pc.low_streams) exec_->enqueue(s, blocker, {});
  }
  sched.release_job(task, task.id, SimTime::zero());
  engine_->run_until(SimTime::from_ms(200));
  const auto s = collector_->aggregate(SimTime::from_ms(200));
  EXPECT_EQ(s.counts.completed(), 1)
      << "high stream must bypass the saturated low streams";
}

TEST_F(SgprsTest, StageCountQueuesIntrospection) {
  SgprsScheduler sched(*exec_, *pool_, *collector_);
  EXPECT_EQ(sched.queued_stages(0), 0u);
  EXPECT_EQ(sched.queued_stages(1), 0u);
  EXPECT_THROW(sched.queued_stages(2), common::CheckError);
}

TEST_F(SgprsTest, PeriodicTaskMeetsAllDeadlinesAtLowLoad) {
  SgprsScheduler sched(*exec_, *pool_, *collector_);
  std::vector<Task> tasks;
  for (int i = 0; i < 4; ++i) tasks.push_back(make_task(i));
  RunnerConfig rc;
  rc.duration = SimTime::from_sec(1.0);
  Runner runner(*engine_, sched, tasks, rc);
  runner.run();
  const auto s = collector_->aggregate(SimTime::from_sec(1.0));
  EXPECT_EQ(s.counts.late, 0);
  EXPECT_EQ(s.counts.dropped, 0);
  EXPECT_NEAR(static_cast<double>(s.counts.on_time),
              4 * 30.0 * 1.0, 5.0);
}

}  // namespace
}  // namespace sgprs::rt
