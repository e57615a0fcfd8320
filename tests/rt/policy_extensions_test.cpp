// Tests for the scheduler extensions: FIFO queue ordering, hopeless-job
// abortion, and heterogeneous context pools.
#include <gtest/gtest.h>

#include <memory>

#include "dnn/builders.hpp"
#include "rt/runner.hpp"
#include "rt/sgprs_scheduler.hpp"
#include "sim/engine.hpp"
#include "workload/spec.hpp"

namespace sgprs::rt {
namespace {

using common::SimTime;

class PolicyExtTest : public ::testing::Test {
 protected:
  void build_stack(gpu::ContextPoolConfig pool_cfg) {
    engine_ = std::make_unique<sim::Engine>();
    exec_ = std::make_unique<gpu::Executor>(*engine_, gpu::rtx2080ti(),
                                            gpu::SpeedupModel::rtx2080ti(),
                                            gpu::SharingParams{});
    pool_ = std::make_unique<gpu::ContextPool>(*exec_, pool_cfg);
    collector_ = std::make_unique<metrics::Collector>();
  }

  Task make_task(int id, const std::vector<int>& sms, TaskConfig cfg = {}) {
    if (!net_) net_ = std::make_shared<const dnn::Network>(dnn::resnet18());
    dnn::Profiler prof(gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                       dnn::CostModel::calibrated());
    return build_task(id, net_, cfg, prof, sms);
  }

  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<gpu::Executor> exec_;
  std::unique_ptr<gpu::ContextPool> pool_;
  std::unique_ptr<metrics::Collector> collector_;
  std::shared_ptr<const dnn::Network> net_;
};

TEST_F(PolicyExtTest, HeterogeneousPoolBuildsRequestedSizes) {
  gpu::ContextPoolConfig pc;
  pc.explicit_sm_limits = {45, 17, 6};
  build_stack(pc);
  ASSERT_EQ(pool_->size(), 3);
  EXPECT_EQ(pool_->at(0).sm_limit, 45);
  EXPECT_EQ(pool_->at(1).sm_limit, 17);
  EXPECT_EQ(pool_->at(2).sm_limit, 6);
  int allocated = 0;
  for (const auto& pc : pool_->contexts()) allocated += pc.sm_limit;
  EXPECT_EQ(allocated, 68);
}

TEST_F(PolicyExtTest, SchedulerRunsOnHeterogeneousPool) {
  gpu::ContextPoolConfig pc;
  pc.explicit_sm_limits = {45, 23};
  build_stack(pc);
  SgprsScheduler sched(*exec_, *pool_, *collector_);
  std::vector<Task> tasks;
  for (int i = 0; i < 6; ++i) tasks.push_back(make_task(i, {45, 23}));
  RunnerConfig rc;
  rc.duration = SimTime::from_ms(500);
  Runner runner(*engine_, sched, tasks, rc);
  runner.run();
  const auto s = collector_->aggregate(rc.duration);
  EXPECT_GT(s.counts.completed(), 0);
  EXPECT_DOUBLE_EQ(s.dmr, 0.0) << "6 tasks are light load even lopsided";
}

TEST_F(PolicyExtTest, AdmitWithoutHeterogeneousWcetThrows) {
  gpu::ContextPoolConfig pc;
  pc.explicit_sm_limits = {45, 23};
  build_stack(pc);
  SgprsScheduler sched(*exec_, *pool_, *collector_);
  // Task profiled only at 45 SMs: the scheduler must refuse it because it
  // cannot estimate work on the 23-SM context.
  const Task bad = make_task(0, {45});
  EXPECT_THROW(sched.admit(bad, bad.id), common::CheckError);
}

TEST_F(PolicyExtTest, FifoOrderDispatchesByArrival) {
  gpu::ContextPoolConfig pc;
  pc.num_contexts = 1;
  pc.high_streams_per_context = 0;
  pc.low_streams_per_context = 1;  // single lane: ordering fully visible
  build_stack(pc);

  SgprsConfig cfg;
  cfg.queue_order = QueueOrder::kFifo;
  cfg.max_in_flight_per_task = 4;
  SgprsScheduler fifo_sched(*exec_, *pool_, *collector_, cfg);

  // Task B has a much tighter deadline than task A. Release A first.
  TaskConfig loose;
  loose.num_stages = 1;
  loose.deadline = SimTime::from_ms(500);
  loose.fps = 2.0;
  // All-low priorities so the single stage is served by the low stream
  // (this pool has no high streams).
  loose.priority_policy = PriorityPolicy::kAllLow;
  TaskConfig tight = loose;
  tight.deadline = SimTime::from_ms(5);
  const Task a = make_task(0, {pool_->at(0).sm_limit}, loose);
  const Task b = make_task(1, {pool_->at(0).sm_limit}, tight);
  fifo_sched.admit(a, a.id);
  fifo_sched.admit(b, b.id);
  // Occupy the lane so both stages queue rather than dispatch instantly.
  gpu::KernelDesc blocker;
  blocker.op = gpu::OpClass::kConv;
  blocker.work_sm_seconds = 0.5;
  exec_->enqueue(pool_->at(0).low_streams[0], blocker, {});
  fifo_sched.release_job(a, a.id, SimTime::zero());
  fifo_sched.release_job(b, b.id, SimTime::zero());
  engine_->run();
  // Under FIFO, A (released first) finishes before B despite B's earlier
  // deadline; B therefore goes (very) late.
  const auto sa = collector_->per_task(0, SimTime::from_sec(2));
  const auto sb = collector_->per_task(1, SimTime::from_sec(2));
  EXPECT_EQ(sa.counts.completed(), 1);
  EXPECT_EQ(sb.counts.late, 1) << "FIFO ignored B's tighter deadline";
}

TEST_F(PolicyExtTest, EdfOrderRescuesTightDeadline) {
  gpu::ContextPoolConfig pc;
  pc.num_contexts = 1;
  pc.high_streams_per_context = 0;
  pc.low_streams_per_context = 1;
  build_stack(pc);

  SgprsConfig cfg;  // default EDF
  cfg.max_in_flight_per_task = 4;
  SgprsScheduler sched(*exec_, *pool_, *collector_, cfg);
  TaskConfig loose;
  loose.num_stages = 1;
  loose.deadline = SimTime::from_ms(500);
  loose.fps = 2.0;
  loose.priority_policy = PriorityPolicy::kAllLow;
  TaskConfig tight = loose;
  tight.deadline = SimTime::from_ms(40);
  const Task a = make_task(0, {pool_->at(0).sm_limit}, loose);
  const Task b = make_task(1, {pool_->at(0).sm_limit}, tight);
  sched.admit(a, a.id);
  sched.admit(b, b.id);
  gpu::KernelDesc blocker;
  blocker.op = gpu::OpClass::kConv;
  blocker.work_sm_seconds = 0.2;  // ~9 ms on the 68-SM context
  exec_->enqueue(pool_->at(0).low_streams[0], blocker, {});
  sched.release_job(a, a.id, SimTime::zero());
  sched.release_job(b, b.id, SimTime::zero());
  engine_->run();
  const auto sb = collector_->per_task(1, SimTime::from_sec(2));
  EXPECT_EQ(sb.counts.on_time, 1) << "EDF must serve B before A";
}

TEST_F(PolicyExtTest, AbortHopelessShedsDoomedJobs) {
  gpu::ContextPoolConfig pc;
  pc.num_contexts = 2;
  build_stack(pc);
  SgprsConfig cfg;
  cfg.abort_hopeless = true;
  cfg.max_in_flight_per_task = 8;  // let the backlog form
  SgprsScheduler sched(*exec_, *pool_, *collector_, cfg);
  std::vector<Task> tasks;
  for (int i = 0; i < 30; ++i) tasks.push_back(make_task(i, {34}));
  for (auto& t : tasks) sched.admit(t, t.id);
  // Burst far beyond capacity: the tail is unsavable.
  for (int round = 0; round < 3; ++round) {
    for (auto& t : tasks) sched.release_job(t, t.id, engine_->now());
  }
  engine_->run();
  EXPECT_GT(sched.jobs_aborted(), 0);
  const auto s = collector_->aggregate(SimTime::from_sec(5));
  EXPECT_EQ(s.counts.released,
            s.counts.completed() + s.counts.dropped);
}

TEST_F(PolicyExtTest, AbortDisabledRunsEverythingToCompletion) {
  gpu::ContextPoolConfig pc;
  pc.num_contexts = 2;
  build_stack(pc);
  SgprsConfig cfg;
  cfg.abort_hopeless = false;
  cfg.max_in_flight_per_task = 8;
  SgprsScheduler sched(*exec_, *pool_, *collector_, cfg);
  std::vector<Task> tasks;
  for (int i = 0; i < 30; ++i) tasks.push_back(make_task(i, {34}));
  for (auto& t : tasks) sched.admit(t, t.id);
  for (auto& t : tasks) sched.release_job(t, t.id, engine_->now());
  engine_->run();
  EXPECT_EQ(sched.jobs_aborted(), 0);
  const auto s = collector_->aggregate(SimTime::from_sec(5));
  EXPECT_EQ(s.counts.completed(), 30);
}

TEST_F(PolicyExtTest, HeterogeneousScenarioViaConfig) {
  workload::ScenarioSpec spec;
  spec.base.scheduler = workload::SchedulerKind::kSgprs;
  spec.base.context_sms = {51, 34, 17};  // lopsided, over-subscribed pool
  spec.base.duration = SimTime::from_sec(1.0);
  spec.base.warmup = SimTime::from_ms(200);
  spec.tasks.emplace_back().count = 10;
  const auto r = workload::run_spec(spec);
  EXPECT_NEAR(r.fps(), 300.0, 15.0);
  EXPECT_DOUBLE_EQ(r.dmr(), 0.0);
}

}  // namespace
}  // namespace sgprs::rt
