#include "rt/naive_scheduler.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "dnn/builders.hpp"
#include "rt/runner.hpp"
#include "sim/engine.hpp"

namespace sgprs::rt {
namespace {

using common::SimTime;

class NaiveTest : public ::testing::Test {
 protected:
  NaiveTest() {
    engine_ = std::make_unique<sim::Engine>();
    exec_ = std::make_unique<gpu::Executor>(*engine_, gpu::rtx2080ti(),
                                            gpu::SpeedupModel::rtx2080ti(),
                                            gpu::SharingParams{});
    gpu::ContextPoolConfig pc;
    pc.num_contexts = 2;
    pc.high_streams_per_context = 1;
    pc.low_streams_per_context = 0;
    pool_ = std::make_unique<gpu::ContextPool>(*exec_, pc);
    collector_ = std::make_unique<metrics::Collector>();
  }

  Task make_task(int id) {
    if (!network_) {
      network_ = std::make_shared<const dnn::Network>(dnn::resnet18());
    }
    dnn::Profiler prof(gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                       dnn::CostModel::calibrated());
    return build_task(id, network_, {}, prof, {pool_->at(0).sm_limit});
  }

  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<gpu::Executor> exec_;
  std::unique_ptr<gpu::ContextPool> pool_;
  std::unique_ptr<metrics::Collector> collector_;
  std::shared_ptr<const dnn::Network> network_;
};

TEST_F(NaiveTest, RoundRobinPinning) {
  NaiveScheduler sched(*exec_, *pool_, *collector_);
  std::vector<Task> tasks;
  for (int i = 0; i < 5; ++i) tasks.push_back(make_task(i));
  for (auto& t : tasks) sched.admit(t, t.id);
  EXPECT_EQ(sched.task_context(0), 0);
  EXPECT_EQ(sched.task_context(1), 1);
  EXPECT_EQ(sched.task_context(2), 0);
  EXPECT_EQ(sched.task_context(3), 1);
  EXPECT_EQ(sched.task_context(4), 0);
}

TEST_F(NaiveTest, SingleJobCompletes) {
  NaiveScheduler sched(*exec_, *pool_, *collector_);
  const Task task = make_task(0);
  sched.admit(task, task.id);
  sched.release_job(task, task.id, SimTime::zero());
  engine_->run();
  const auto s = collector_->aggregate(SimTime::from_ms(100));
  EXPECT_EQ(s.counts.on_time, 1);
  EXPECT_EQ(sched.jobs_in_flight(), 0);
}

TEST_F(NaiveTest, SingleFrameBufferDropsWhileBusy) {
  NaiveScheduler sched(*exec_, *pool_, *collector_);
  const Task task = make_task(0);
  sched.admit(task, task.id);
  sched.release_job(task, task.id, SimTime::zero());
  // The previous frame is still pending.
  sched.release_job(task, task.id, SimTime::zero());
  engine_->run();
  const auto s = collector_->aggregate(SimTime::from_ms(200));
  EXPECT_EQ(s.counts.dropped, 1);
  EXPECT_EQ(s.counts.completed(), 1);
}

TEST_F(NaiveTest, NextTimerIsTheEarliestPendingHostSyncGap) {
  // A gap long enough that both jobs end before either context frees.
  NaiveConfig cfg;
  cfg.host_sync_gap = SimTime::from_ms(50.0);
  NaiveScheduler sched(*exec_, *pool_, *collector_, cfg);
  EXPECT_TRUE(sched.next_timer().is_max());
  const Task a = make_task(0);
  const Task b = make_task(1);  // pinned to the other context
  sched.admit(a, a.id);
  sched.admit(b, b.id);
  sched.release_job(a, a.id, SimTime::zero());
  engine_->run_until(SimTime::from_ms(0.5));
  sched.release_job(b, b.id, engine_->now());

  std::vector<SimTime> ends;
  while (ends.size() < 2 && engine_->step()) {
    const auto s = collector_->aggregate(SimTime::from_sec(1.0));
    while (s.counts.completed() > static_cast<int>(ends.size())) {
      ends.push_back(engine_->now());
    }
    // Each job end arms one gap; the earliest pending one bounds.
    if (!ends.empty()) {
      EXPECT_EQ(sched.next_timer(), ends.front() + cfg.host_sync_gap);
    }
  }
  ASSERT_EQ(ends.size(), 2u);
  ASSERT_LT(ends[1], ends[0] + cfg.host_sync_gap);
  engine_->run_until(ends[0] + cfg.host_sync_gap);
  EXPECT_EQ(sched.next_timer(), ends[1] + cfg.host_sync_gap);
  engine_->run();
  EXPECT_TRUE(sched.next_timer().is_max());
}

TEST_F(NaiveTest, NextTimerKeepsStaleGapsInFireOrder) {
  // Each round a job ends and the device crashes inside its gap, which
  // frees the context at once: the next job runs while the stale gap still
  // pends, so gaps of one context pile up past the timers' reserved room.
  NaiveConfig cfg;
  cfg.host_sync_gap = SimTime::from_ms(50.0);
  NaiveScheduler sched(*exec_, *pool_, *collector_, cfg);
  const Task a = make_task(0);
  sched.admit(a, a.id);
  const auto completed = [&] {
    return collector_->aggregate(SimTime::from_sec(1.0)).counts.completed();
  };
  std::vector<SimTime> gaps;
  for (int round = 0; round < 5; ++round) {
    sched.release_job(a, a.id, engine_->now());
    while (completed() == round) ASSERT_TRUE(engine_->step());
    gaps.push_back(engine_->now() + cfg.host_sync_gap);
    EXPECT_EQ(sched.next_timer(), gaps.front());
    sched.abort_in_flight();
  }
  for (const SimTime gap : gaps) {
    EXPECT_EQ(sched.next_timer(), gap);
    engine_->run_until(gap);
  }
  EXPECT_TRUE(sched.next_timer().is_max());

  // Drained, the timers reuse their room: one job, one gap, round after
  // round.
  for (int round = 5; round < 25; ++round) {
    sched.release_job(a, a.id, engine_->now());
    while (completed() == round) ASSERT_TRUE(engine_->step());
    EXPECT_EQ(sched.next_timer(), engine_->now() + cfg.host_sync_gap);
    engine_->run();
    EXPECT_TRUE(sched.next_timer().is_max());
  }
}

TEST_F(NaiveTest, NoMigrationEver) {
  NaiveScheduler sched(*exec_, *pool_, *collector_);
  std::vector<Task> tasks;
  for (int i = 0; i < 4; ++i) tasks.push_back(make_task(i));
  RunnerConfig rc;
  rc.duration = SimTime::from_ms(500);
  Runner runner(*engine_, sched, tasks, rc);
  runner.run();
  // Pinned tasks: every job of task i runs on context i % 2. There is no
  // migration counter on the naive scheduler by design; verify pinning
  // survives execution instead.
  EXPECT_EQ(sched.task_context(0), 0);
  EXPECT_EQ(sched.task_context(2), 0);
}

TEST_F(NaiveTest, HostSyncGapSlowsThroughput) {
  auto throughput_with_gap = [&](double gap_ms) {
    sim::Engine engine;
    gpu::Executor exec(engine, gpu::rtx2080ti(),
                       gpu::SpeedupModel::rtx2080ti(), gpu::SharingParams{});
    gpu::ContextPoolConfig pc;
    pc.num_contexts = 2;
    pc.high_streams_per_context = 1;
    pc.low_streams_per_context = 0;
    gpu::ContextPool pool(exec, pc);
    metrics::Collector collector;
    NaiveConfig cfg;
    cfg.host_sync_gap = SimTime::from_ms(gap_ms);
    NaiveScheduler sched(exec, pool, collector, cfg);
    dnn::Profiler prof(gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                       dnn::CostModel::calibrated());
    auto net = std::make_shared<const dnn::Network>(dnn::resnet18());
    std::vector<Task> tasks;
    for (int i = 0; i < 20; ++i) {
      tasks.push_back(build_task(i, net, {}, prof, {pool.at(0).sm_limit}));
    }
    RunnerConfig rc;
    rc.duration = SimTime::from_sec(1.0);
    Runner runner(engine, sched, tasks, rc);
    runner.run();
    return collector.aggregate(rc.duration).fps;
  };
  const double fast = throughput_with_gap(0.0);
  const double slow = throughput_with_gap(1.0);
  EXPECT_GT(fast, slow * 1.15)
      << "1 ms host gap must cost well over 15% at ~3 ms job service";
}

TEST_F(NaiveTest, LateJobsRunToCompletion) {
  // Saturate one context, then check that late jobs still complete (the
  // naive scheduler has no deadline awareness — the domino effect).
  NaiveScheduler sched(*exec_, *pool_, *collector_);
  std::vector<Task> tasks;
  for (int i = 0; i < 24; ++i) tasks.push_back(make_task(i));
  for (auto& t : tasks) sched.admit(t, t.id);
  // All 24 released at once on 2 contexts: 12 sequential jobs per context
  // at ~3.3 ms each + 1 ms gaps -> the tail jobs are far past 33 ms.
  for (auto& t : tasks) sched.release_job(t, t.id, SimTime::zero());
  engine_->run();
  const auto s = collector_->aggregate(SimTime::from_sec(1));
  EXPECT_EQ(s.counts.completed(), 24) << "nothing is aborted";
  EXPECT_GT(s.counts.late, 0) << "tail jobs must have missed";
}

TEST_F(NaiveTest, ReleaseBeforeAdmitThrows) {
  NaiveScheduler sched(*exec_, *pool_, *collector_);
  const Task task = make_task(0);
  EXPECT_THROW(sched.release_job(task, task.id, SimTime::zero()),
               common::CheckError);
}

TEST_F(NaiveTest, TaskContextValidation) {
  NaiveScheduler sched(*exec_, *pool_, *collector_);
  EXPECT_THROW(sched.task_context(0), common::CheckError);
}

}  // namespace
}  // namespace sgprs::rt
