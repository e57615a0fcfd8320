// Dynamic Runner surface: add_task / retire_task under a live engine.
//
// The load-bearing properties: a dynamically admitted task starts its
// cadence at admission time; retiring cancels the pending release through
// the generation-tagged calendar so no stale release ever fires; and a
// sporadic task's arrival-rng stream depends on (jitter_seed, task id)
// only — never on admission order.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/check.hpp"
#include "rt/runner.hpp"
#include "rt/scheduler.hpp"
#include "sim/engine.hpp"

namespace sgprs::rt {
namespace {

using common::SimTime;

/// Records every release instant per task id.
class RecordingScheduler final : public Scheduler {
 public:
  void admit(const Task& task, int slot) override {
    admitted_.push_back(task.id);
    slot_of_[task.id] = slot;
  }
  void release_job(const Task& task, int slot, SimTime now) override {
    EXPECT_EQ(slot, slot_of_.at(task.id)) << "task " << task.id;
    releases_[task.id].push_back(now);
  }
  int jobs_in_flight() const override { return 0; }
  std::string name() const override { return "recording"; }

  std::vector<int> admitted_;
  std::map<int, int> slot_of_;  // task id -> slot it was last admitted in
  std::map<int, std::vector<SimTime>> releases_;
};

Task make_task(int id, double period_ms, double phase_ms = 0.0) {
  Task t;
  t.id = id;
  t.name = "t" + std::to_string(id);
  t.period = SimTime::from_ms(period_ms);
  t.deadline = t.period;
  t.phase = SimTime::from_ms(phase_ms);
  return t;
}

Task make_sporadic(int id, double min_ms, double max_ms) {
  Task t = make_task(id, min_ms);
  t.arrival = ArrivalModel::kSporadic;
  t.min_separation = SimTime::from_ms(min_ms);
  t.max_separation = SimTime::from_ms(max_ms);
  return t;
}

TEST(RunnerDynamicTest, AddTaskMidRunStartsCadenceAtAdmission) {
  sim::Engine engine;
  RecordingScheduler sched;
  RunnerConfig cfg;
  cfg.duration = SimTime::from_ms(100.0);
  Runner runner(engine, sched, cfg);

  const Task a = make_task(0, 10.0);
  runner.add_task(a);
  runner.start();
  engine.run_until(SimTime::from_ms(35.0));

  const Task b = make_task(1, 10.0, /*phase_ms=*/2.0);
  runner.add_task(b);
  engine.run_until(SimTime::from_ms(100.0));

  // Task 0: releases at 0, 10, ..., 90.
  ASSERT_EQ(sched.releases_[0].size(), 10u);
  // Task 1: first release at admission (35) + phase (2), then every 10 ms.
  ASSERT_FALSE(sched.releases_[1].empty());
  EXPECT_EQ(sched.releases_[1].front(), SimTime::from_ms(37.0));
  EXPECT_EQ(sched.releases_[1].size(), 7u);  // 37, 47, ..., 97
  EXPECT_EQ(runner.releases_issued(), 17);
  EXPECT_EQ(runner.active_tasks(), 2);
}

TEST(RunnerDynamicTest, RetireCancelsPendingReleaseAndNeverFiresStale) {
  sim::Engine engine;
  RecordingScheduler sched;
  RunnerConfig cfg;
  cfg.duration = SimTime::from_ms(100.0);
  Runner runner(engine, sched, cfg);
  const Task keeper = make_task(0, 10.0);
  const Task victim = make_task(1, 10.0);
  runner.add_task(keeper);
  runner.add_task(victim);
  runner.start();

  engine.run_until(SimTime::from_ms(25.0));
  ASSERT_EQ(sched.releases_[1].size(), 3u);  // 0, 10, 20

  EXPECT_TRUE(runner.retire_task(1));
  EXPECT_FALSE(runner.retire_task(1));   // idempotent: already retired
  EXPECT_FALSE(runner.retire_task(99));  // unknown id
  EXPECT_EQ(runner.active_tasks(), 1);

  engine.run_until(SimTime::from_ms(100.0));
  // No release of task 1 ever fires after the retire instant.
  EXPECT_EQ(sched.releases_[1].size(), 3u);
  // Task 0 is unaffected.
  EXPECT_EQ(sched.releases_[0].size(), 10u);
}

TEST(RunnerDynamicTest, SporadicRngKeyedOnTaskIdNotAdmissionOrder) {
  // Same sporadic task id admitted in different orders (and one of them
  // dynamically) must see the identical inter-arrival draw sequence.
  const auto release_times = [](bool sporadic_first, bool dynamic_admit) {
    sim::Engine engine;
    RecordingScheduler sched;
    RunnerConfig cfg;
    cfg.duration = SimTime::from_ms(200.0);
    cfg.jitter_seed = 1234;
    Runner runner(engine, sched, cfg);
    const Task s = make_sporadic(7, 10.0, 20.0);
    const Task p1 = make_task(1, 8.0);
    const Task p2 = make_task(2, 12.0);
    if (sporadic_first) {
      runner.add_task(s);
      runner.add_task(p1);
    } else {
      runner.add_task(p1);
      runner.add_task(p2);
    }
    if (!dynamic_admit && !sporadic_first) runner.add_task(s);
    runner.start();
    if (dynamic_admit && !sporadic_first) {
      // Admit the sporadic task mid-run; its draws must still match.
      engine.run_until(SimTime::zero());
      runner.add_task(s);
    }
    engine.run_until(SimTime::from_ms(200.0));
    return sched.releases_[7];
  };

  const auto a = release_times(true, false);
  const auto b = release_times(false, false);
  const auto c = release_times(false, true);
  ASSERT_GT(a.size(), 3u);
  // Admission order shuffled: identical sequence (all released from t=0).
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(RunnerDynamicTest, NextReleaseTracksAddRetireAndFire) {
  sim::Engine engine;
  RecordingScheduler sched;
  RunnerConfig cfg;
  cfg.duration = SimTime::from_ms(100.0);
  Runner runner(engine, sched, cfg);
  EXPECT_TRUE(runner.next_release().is_max());

  const Task a = make_task(0, 10.0, /*phase_ms=*/4.0);
  const Task b = make_task(1, 10.0, /*phase_ms=*/7.0);
  runner.add_task(a);
  runner.add_task(b);
  // Admitted but not started: nothing is armed yet.
  EXPECT_TRUE(runner.next_release().is_max());
  runner.start();
  EXPECT_EQ(runner.next_release(), SimTime::from_ms(4.0));

  // Each fire re-arms its task a period on.
  engine.run_until(SimTime::from_ms(4.0));
  EXPECT_EQ(runner.next_release(), SimTime::from_ms(7.0));
  engine.run_until(SimTime::from_ms(7.0));
  EXPECT_EQ(runner.next_release(), SimTime::from_ms(14.0));

  // Retiring the earliest pending release hands the bound to the other.
  EXPECT_TRUE(runner.retire_task(0));
  EXPECT_EQ(runner.next_release(), SimTime::from_ms(17.0));

  // A task added mid-run arms at now + phase.
  const Task c = make_task(2, 10.0, /*phase_ms=*/1.0);
  engine.run_until(SimTime::from_ms(12.0));
  runner.add_task(c);
  EXPECT_EQ(runner.next_release(), SimTime::from_ms(13.0));

  // Past the last release nothing is pending.
  engine.run_until(SimTime::from_ms(100.0));
  EXPECT_TRUE(runner.next_release().is_max());
  EXPECT_TRUE(runner.retire_task(1));
  EXPECT_TRUE(runner.next_release().is_max());
}

TEST(RunnerDynamicTest, DuplicateTaskIdRejected) {
  sim::Engine engine;
  RecordingScheduler sched;
  RunnerConfig cfg;
  cfg.duration = SimTime::from_ms(100.0);
  Runner runner(engine, sched, cfg);
  const Task a = make_task(3, 10.0);
  const Task dup = make_task(3, 20.0);
  runner.add_task(a);
  EXPECT_THROW(runner.add_task(dup), common::CheckError);
}

TEST(RunnerDynamicTest, StaticConstructorMatchesIncrementalAdmission) {
  // The closed-world constructor and a sequence of add_task calls must
  // produce identical release schedules (the static path is just the
  // dynamic path with every admission at t=0).
  std::vector<Task> tasks;
  tasks.push_back(make_task(0, 10.0, 1.0));
  tasks.push_back(make_sporadic(1, 15.0, 25.0));

  const auto run = [&](bool use_ctor) {
    sim::Engine engine;
    RecordingScheduler sched;
    RunnerConfig cfg;
    cfg.duration = SimTime::from_ms(150.0);
    if (use_ctor) {
      Runner runner(engine, sched, tasks, cfg);
      runner.run();
      return std::make_pair(sched.releases_, runner.releases_issued());
    }
    Runner runner(engine, sched, cfg);
    for (const auto& t : tasks) runner.add_task(t);
    runner.run();
    return std::make_pair(sched.releases_, runner.releases_issued());
  };

  const auto a = run(true);
  const auto b = run(false);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace sgprs::rt
