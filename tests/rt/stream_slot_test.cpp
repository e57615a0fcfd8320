// Dense stream slots: the runner numbers each stream it admits 0, 1, 2, ...
// and schedulers key their per-stream state by that slot, while task ids
// keep keying every collector, tracer and audit record.
//
// The properties pinned here: a retired stream that comes back to its
// runner gets its old slot, and so a frame it left in flight still caps
// its first release after the return; a device's metrics do not depend on
// how large its streams' ids are; the naive scheduler's pinning is read by
// slot; and the fleet overload guard forwards the slot to the scheduler it
// wraps, while its sheds stay keyed by task id.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "dnn/builders.hpp"
#include "fleet/overload_guard.hpp"
#include "rt/naive_scheduler.hpp"
#include "rt/runner.hpp"
#include "rt/scheduler_kind.hpp"
#include "rt/sgprs_scheduler.hpp"
#include "sim/engine.hpp"

namespace sgprs::rt {
namespace {

using common::SimTime;

/// Records the slot of every admit and release, by task id.
class SlotRecorder final : public Scheduler {
 public:
  void admit(const Task& task, int slot) override {
    admits.emplace_back(task.id, slot);
  }
  void release_job(const Task& task, int slot, SimTime /*now*/) override {
    releases.emplace_back(task.id, slot);
  }
  int jobs_in_flight() const override { return in_flight; }
  std::string name() const override { return "slot-recorder"; }

  std::vector<std::pair<int, int>> admits;    // (task id, slot)
  std::vector<std::pair<int, int>> releases;  // (task id, slot)
  int in_flight = 0;
};

Task periodic_task(int id, double period_ms) {
  Task t;
  t.id = id;
  t.name = "t" + std::to_string(id);
  t.period = SimTime::from_ms(period_ms);
  t.deadline = t.period;
  return t;
}

TEST(StreamSlot, RetiredStreamReturnsToItsSlot) {
  sim::Engine engine;
  SlotRecorder sched;
  RunnerConfig cfg;
  cfg.duration = SimTime::from_ms(50.0);
  Runner runner(engine, sched, cfg);
  const Task a = periodic_task(700000, 10.0);
  const Task b = periodic_task(3, 10.0);
  const Task c = periodic_task(250000, 10.0);
  runner.add_task(a);
  runner.add_task(b);
  runner.start();
  engine.run_until(SimTime::from_ms(5.0));
  ASSERT_TRUE(runner.retire_task(a.id));
  runner.add_task(c);  // a new stream takes a new slot, never a's
  runner.add_task(a);  // a comes back to its own slot
  engine.run_until(cfg.duration);

  EXPECT_EQ(sched.admits, (std::vector<std::pair<int, int>>{
                              {a.id, 0}, {b.id, 1}, {c.id, 2}, {a.id, 0}}));
  std::map<int, int> slot_of;
  for (const auto& [id, slot] : sched.releases) {
    EXPECT_EQ(slot_of.emplace(id, slot).first->second, slot)
        << "task " << id << " changed slot";
  }
  EXPECT_EQ(slot_of, (std::map<int, int>{{b.id, 1}, {c.id, 2}, {a.id, 0}}));
}

/// One device, one scheduler of either kind, driven through a Runner.
class SlotDeviceTest : public ::testing::TestWithParam<SchedulerKind> {
 protected:
  SlotDeviceTest() {
    exec_ = std::make_unique<gpu::Executor>(engine_, gpu::rtx2080ti(),
                                            gpu::SpeedupModel::rtx2080ti(),
                                            gpu::SharingParams{});
    pool_ = std::make_unique<gpu::ContextPool>(*exec_,
                                               gpu::ContextPoolConfig{});
    if (GetParam() == SchedulerKind::kSgprs) {
      sched_ = std::make_unique<SgprsScheduler>(*exec_, *pool_, collector_);
    } else {
      sched_ = std::make_unique<NaiveScheduler>(*exec_, *pool_, collector_);
    }
  }

  Task make_task(int id) {
    const auto network = std::make_shared<const dnn::Network>(dnn::resnet18());
    dnn::Profiler prof(gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                       dnn::CostModel::calibrated());
    return build_task(id, network, {}, prof, {pool_->at(0).sm_limit});
  }

  sim::Engine engine_;
  std::unique_ptr<gpu::Executor> exec_;
  std::unique_ptr<gpu::ContextPool> pool_;
  metrics::Collector collector_;
  std::unique_ptr<Scheduler> sched_;
};

TEST_P(SlotDeviceTest, FrameInFlightAcrossRetireCapsFirstReleaseAfterReturn) {
  RunnerConfig cfg;
  cfg.duration = SimTime::from_ms(100.0);
  Runner runner(engine_, *sched_, cfg);
  const Task task = make_task(250000);
  runner.add_task(task);
  runner.start();
  const SimTime back = SimTime::from_us(500);
  engine_.run_until(back);
  ASSERT_EQ(sched_->jobs_in_flight(), 1) << "the t=0 frame must still run";
  ASSERT_TRUE(runner.retire_task(task.id));
  runner.add_task(task);  // same slot; first release armed at `back`
  engine_.run_until(back);

  // The frame released at t=0 holds the slot's single in-flight place, so
  // the release at `back` is dropped, exactly as before the retirement.
  const auto early = collector_.per_task(task.id, back);
  EXPECT_EQ(early.counts.released, 2);
  EXPECT_EQ(early.counts.dropped, 1);
  EXPECT_EQ(sched_->jobs_in_flight(), 1);

  engine_.run_until(cfg.duration);
  const auto all = collector_.per_task(task.id, cfg.duration);
  EXPECT_EQ(all.counts.dropped, 1);
  EXPECT_EQ(all.counts.released, all.counts.closed());
}

/// Runs two streams with ids (a, b) on a fresh device for 200 ms and
/// returns their per-task snapshots.
std::pair<metrics::Snapshot, metrics::Snapshot> run_pair(SchedulerKind kind,
                                                         int a, int b) {
  sim::Engine engine;
  gpu::Executor exec(engine, gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                     gpu::SharingParams{});
  gpu::ContextPool pool(exec, gpu::ContextPoolConfig{});
  metrics::Collector collector;
  std::unique_ptr<Scheduler> sched;
  if (kind == SchedulerKind::kSgprs) {
    sched = std::make_unique<SgprsScheduler>(exec, pool, collector);
  } else {
    sched = std::make_unique<NaiveScheduler>(exec, pool, collector);
  }
  const auto network = std::make_shared<const dnn::Network>(dnn::resnet18());
  dnn::Profiler prof(gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                     dnn::CostModel::calibrated());
  TaskConfig fast;
  fast.fps = 60.0;
  std::vector<Task> tasks = {
      build_task(a, network, fast, prof, {pool.at(0).sm_limit}),
      build_task(b, network, {}, prof, {pool.at(0).sm_limit})};
  tasks[1].phase = SimTime::from_ms(2.0);
  RunnerConfig cfg;
  cfg.duration = SimTime::from_ms(200.0);
  Runner runner(engine, *sched, tasks, cfg);
  runner.run();
  engine.run();  // drain frames still in flight at the horizon
  return {collector.per_task(a, cfg.duration),
          collector.per_task(b, cfg.duration)};
}

void expect_same(const metrics::Snapshot& x, const metrics::Snapshot& y) {
  EXPECT_EQ(x.counts.released, y.counts.released);
  EXPECT_EQ(x.counts.dropped, y.counts.dropped);
  EXPECT_EQ(x.counts.on_time, y.counts.on_time);
  EXPECT_EQ(x.counts.late, y.counts.late);
  EXPECT_EQ(x.fps, y.fps);
  EXPECT_EQ(x.dmr, y.dmr);
  EXPECT_EQ(x.mean_latency_ms, y.mean_latency_ms);
  EXPECT_EQ(x.p50_latency_ms, y.p50_latency_ms);
  EXPECT_EQ(x.p99_latency_ms, y.p99_latency_ms);
  EXPECT_EQ(x.max_latency_ms, y.max_latency_ms);
}

TEST_P(SlotDeviceTest, SparseIdsReportLikeDenseIds) {
  const auto [dense_a, dense_b] = run_pair(GetParam(), 0, 1);
  const auto [sparse_a, sparse_b] = run_pair(GetParam(), 3, 250000);
  ASSERT_GT(dense_a.counts.completed(), 0);
  ASSERT_GT(dense_b.counts.completed(), 0);
  expect_same(sparse_a, dense_a);
  expect_same(sparse_b, dense_b);
}

INSTANTIATE_TEST_SUITE_P(BothSchedulers, SlotDeviceTest,
                         ::testing::Values(SchedulerKind::kSgprs,
                                           SchedulerKind::kNaive),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(StreamSlot, NaiveTaskContextIsReadBySlot) {
  sim::Engine engine;
  gpu::Executor exec(engine, gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                     gpu::SharingParams{});
  gpu::ContextPoolConfig pc;
  pc.num_contexts = 2;
  gpu::ContextPool pool(exec, pc);
  metrics::Collector collector;
  NaiveScheduler sched(exec, pool, collector);
  const std::vector<Task> tasks = {periodic_task(500, 10.0),
                                   periodic_task(20, 10.0),
                                   periodic_task(90000, 10.0)};
  for (int slot = 0; slot < 3; ++slot) sched.admit(tasks[slot], slot);
  EXPECT_EQ(sched.task_context(0), 0);
  EXPECT_EQ(sched.task_context(1), 1);
  EXPECT_EQ(sched.task_context(2), 0);
  EXPECT_THROW(sched.task_context(3), common::CheckError);
  EXPECT_THROW(sched.task_context(500), common::CheckError);
  // Slots are dense: skipping one is a hard error, not a resize.
  EXPECT_THROW(sched.admit(periodic_task(7, 10.0), 4), common::CheckError);
}

TEST(StreamSlot, SgprsRejectsASkippedSlot) {
  sim::Engine engine;
  gpu::Executor exec(engine, gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                     gpu::SharingParams{});
  gpu::ContextPool pool(exec, gpu::ContextPoolConfig{});
  metrics::Collector collector;
  SgprsScheduler sched(exec, pool, collector);
  const auto network = std::make_shared<const dnn::Network>(dnn::lenet5());
  dnn::Profiler prof(gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                     dnn::CostModel::calibrated());
  const Task task = build_task(250000, network, {}, prof,
                               {pool.at(0).sm_limit});
  EXPECT_THROW(sched.admit(task, 1), common::CheckError);
  EXPECT_THROW(sched.release_job(task, 0, SimTime::zero()),
               common::CheckError);
  sched.admit(task, 0);
  sched.admit(task, 0);  // a returning stream: its slot already exists
  sched.release_job(task, 0, SimTime::zero());
  EXPECT_EQ(sched.jobs_in_flight(), 1);
}

TEST(StreamSlot, OverloadGuardForwardsSlotsAndShedsById) {
  metrics::Collector collector;
  fleet::OverloadState state;
  state.cfg.shed = fleet::ShedMode::kPriority;
  state.cfg.queue_limit = 1;
  std::vector<fleet::FleetDecision> audit;
  state.audit = &audit;
  fleet::DeviceOverload& dev = state.device(0, 0);
  dev.collector = &collector;
  auto inner = std::make_unique<SlotRecorder>();
  SlotRecorder& rec = *inner;
  fleet::OverloadGuard guard(std::move(inner), 0, &state, &dev);

  const Task kept = periodic_task(3, 10.0);  // tier 0: never shed
  const Task sheddable = periodic_task(250000, 10.0);
  state.set_tier(sheddable.id, 1);
  guard.admit(kept, 0);
  guard.admit(sheddable, 1);
  EXPECT_EQ(rec.admits, (std::vector<std::pair<int, int>>{
                            {kept.id, 0}, {sheddable.id, 1}}));

  // Under the limit: both releases pass through with their slots.
  guard.release_job(kept, 0, SimTime::from_ms(1.0));
  guard.release_job(sheddable, 1, SimTime::from_ms(1.0));
  // At the limit: the sheddable stream is shed at the door, recorded by
  // task id, and never reaches the wrapped scheduler; the protected one
  // still passes through with its slot.
  rec.in_flight = 1;
  guard.release_job(sheddable, 1, SimTime::from_ms(2.0));
  guard.release_job(kept, 0, SimTime::from_ms(2.0));
  EXPECT_EQ(rec.releases, (std::vector<std::pair<int, int>>{
                              {kept.id, 0}, {sheddable.id, 1}, {kept.id, 0}}));
  EXPECT_EQ(dev.jobs_shed, 1);
  EXPECT_TRUE(collector.has_task(sheddable.id));
  EXPECT_FALSE(collector.has_task(1));
  const auto shed = collector.per_task(sheddable.id, SimTime::from_ms(3.0));
  EXPECT_EQ(shed.counts.released, 1);
  EXPECT_EQ(shed.counts.dropped, 1);
  state.flush_all();
  ASSERT_EQ(audit.size(), 1u);
  EXPECT_EQ(audit[0].task_id, sheddable.id);
  EXPECT_EQ(audit[0].kind, fleet::DecisionKind::kJobShed);

  // Back under the limit, the shed stream passes through on its slot.
  rec.in_flight = 0;
  guard.release_job(sheddable, 1, SimTime::from_ms(3.0));
  EXPECT_EQ(rec.releases.back(), std::make_pair(sheddable.id, 1));
}

}  // namespace
}  // namespace sgprs::rt
