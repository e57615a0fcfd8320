#include "rt/runner.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "dnn/builders.hpp"
#include "rt/naive_scheduler.hpp"
#include "sim/engine.hpp"

namespace sgprs::rt {
namespace {

using common::SimTime;

// A scheduler stub that records release instants.
class RecordingScheduler final : public Scheduler {
 public:
  void admit(const Task& task, int slot) override {
    admitted.push_back(task.id);
    slots.push_back(slot);
  }
  void release_job(const Task& task, int /*slot*/, SimTime now) override {
    releases.emplace_back(task.id, now);
  }
  int jobs_in_flight() const override { return 0; }
  std::string name() const override { return "recording"; }

  std::vector<int> admitted;
  std::vector<int> slots;  // per admit, in call order
  std::vector<std::pair<int, SimTime>> releases;
};

class RunnerTest : public ::testing::Test {
 protected:
  Task make_task(int id, double fps, SimTime phase = SimTime::zero()) {
    if (!network_) {
      network_ = std::make_shared<const dnn::Network>(dnn::lenet5());
    }
    dnn::Profiler prof(gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                       dnn::CostModel::calibrated());
    TaskConfig cfg;
    cfg.fps = fps;
    cfg.num_stages = 2;
    Task t = build_task(id, network_, cfg, prof, {34});
    t.phase = phase;
    return t;
  }
  std::shared_ptr<const dnn::Network> network_;
};

TEST_F(RunnerTest, AdmitsEveryTaskUpFront) {
  sim::Engine engine;
  RecordingScheduler sched;
  std::vector<Task> tasks = {make_task(0, 30), make_task(1, 30)};
  Runner runner(engine, sched, tasks, {});
  EXPECT_EQ(sched.admitted, (std::vector<int>{0, 1}));
  EXPECT_EQ(sched.slots, (std::vector<int>{0, 1}));
}

TEST_F(RunnerTest, PeriodicReleasesAtExactInstants) {
  sim::Engine engine;
  RecordingScheduler sched;
  std::vector<Task> tasks = {make_task(0, 100)};  // 10 ms period
  RunnerConfig rc;
  rc.duration = SimTime::from_ms(35);
  Runner runner(engine, sched, tasks, rc);
  runner.run();
  ASSERT_EQ(sched.releases.size(), 4u);  // t = 0, 10, 20, 30
  for (std::size_t k = 0; k < sched.releases.size(); ++k) {
    EXPECT_EQ(sched.releases[k].second, SimTime::from_ms(10.0 * k));
  }
  EXPECT_EQ(runner.releases_issued(), 4);
}

TEST_F(RunnerTest, PhaseOffsetsFirstRelease) {
  sim::Engine engine;
  RecordingScheduler sched;
  std::vector<Task> tasks = {make_task(0, 100, SimTime::from_ms(4))};
  RunnerConfig rc;
  rc.duration = SimTime::from_ms(25);
  Runner runner(engine, sched, tasks, rc);
  runner.run();
  ASSERT_EQ(sched.releases.size(), 3u);  // t = 4, 14, 24
  EXPECT_EQ(sched.releases[0].second, SimTime::from_ms(4));
}

TEST_F(RunnerTest, NoReleasesAtOrPastHorizon) {
  sim::Engine engine;
  RecordingScheduler sched;
  std::vector<Task> tasks = {make_task(0, 100)};
  RunnerConfig rc;
  rc.duration = SimTime::from_ms(10);  // release at exactly 10 is excluded
  Runner runner(engine, sched, tasks, rc);
  runner.run();
  EXPECT_EQ(sched.releases.size(), 1u);  // only t = 0
  EXPECT_EQ(engine.now(), SimTime::from_ms(10)) << "clock parked at horizon";
}

TEST_F(RunnerTest, MultipleTasksInterleave) {
  sim::Engine engine;
  RecordingScheduler sched;
  std::vector<Task> tasks = {make_task(0, 100), make_task(1, 50)};
  RunnerConfig rc;
  rc.duration = SimTime::from_ms(41);
  Runner runner(engine, sched, tasks, rc);
  runner.run();
  int t0 = 0;
  int t1 = 0;
  for (const auto& [id, at] : sched.releases) (id == 0 ? t0 : t1)++;
  EXPECT_EQ(t0, 5);  // 0,10,20,30,40
  EXPECT_EQ(t1, 3);  // 0,20,40
}

TEST_F(RunnerTest, SporadicInterarrivalsStayInBounds) {
  sim::Engine engine;
  RecordingScheduler sched;
  Task t = make_task(0, 100);  // 10 ms worst-case period
  t.arrival = ArrivalModel::kSporadic;
  t.min_separation = SimTime::from_ms(10);
  t.max_separation = SimTime::from_ms(30);
  std::vector<Task> tasks = {t};
  RunnerConfig rc;
  rc.duration = SimTime::from_sec(1.0);
  Runner runner(engine, sched, tasks, rc);
  runner.run();
  ASSERT_GE(sched.releases.size(), 2u);
  bool saw_stretch = false;
  for (std::size_t k = 1; k < sched.releases.size(); ++k) {
    const SimTime gap =
        sched.releases[k].second - sched.releases[k - 1].second;
    EXPECT_GE(gap, SimTime::from_ms(10));
    EXPECT_LE(gap, SimTime::from_ms(30));
    if (gap > SimTime::from_ms(10)) saw_stretch = true;
  }
  EXPECT_TRUE(saw_stretch) << "draws must actually vary";
}

TEST_F(RunnerTest, SporadicDrawsAreDeterministicPerSeed) {
  auto releases_for = [&](std::uint64_t seed) {
    sim::Engine engine;
    RecordingScheduler sched;
    Task t = make_task(0, 100);
    t.arrival = ArrivalModel::kSporadic;
    t.min_separation = SimTime::from_ms(10);
    t.max_separation = SimTime::from_ms(25);
    std::vector<Task> tasks = {t};
    RunnerConfig rc;
    rc.duration = SimTime::from_ms(500);
    rc.jitter_seed = seed;
    Runner runner(engine, sched, tasks, rc);
    runner.run();
    return sched.releases;
  };
  EXPECT_EQ(releases_for(1), releases_for(1));
  EXPECT_NE(releases_for(1), releases_for(2));
}

TEST_F(RunnerTest, SporadicDefaultsFallBackToPeriod) {
  // Zero separations degrade to strictly periodic releases at the period.
  sim::Engine engine;
  RecordingScheduler sched;
  Task t = make_task(0, 100);
  t.arrival = ArrivalModel::kSporadic;
  std::vector<Task> tasks = {t};
  RunnerConfig rc;
  rc.duration = SimTime::from_ms(35);
  Runner runner(engine, sched, tasks, rc);
  runner.run();
  ASSERT_EQ(sched.releases.size(), 4u);
  for (std::size_t k = 0; k < sched.releases.size(); ++k) {
    EXPECT_EQ(sched.releases[k].second, SimTime::from_ms(10.0 * k));
  }
}

TEST_F(RunnerTest, SporadicMinAboveMaxRejected) {
  sim::Engine engine;
  RecordingScheduler sched;
  Task t = make_task(0, 100);
  t.arrival = ArrivalModel::kSporadic;
  t.min_separation = SimTime::from_ms(30);
  t.max_separation = SimTime::from_ms(10);
  std::vector<Task> tasks = {t};
  EXPECT_THROW(Runner(engine, sched, tasks, {}), common::CheckError);

  // A max below the *defaulted* min (the 10 ms period) must also be
  // rejected, not silently clamped away.
  t.min_separation = SimTime::zero();
  t.max_separation = SimTime::from_ms(5);
  std::vector<Task> tasks2 = {t};
  EXPECT_THROW(Runner(engine, sched, tasks2, {}), common::CheckError);
}

TEST_F(RunnerTest, ZeroDurationRejected) {
  sim::Engine engine;
  RecordingScheduler sched;
  std::vector<Task> tasks = {make_task(0, 30)};
  RunnerConfig rc;
  rc.duration = SimTime::zero();
  EXPECT_THROW(Runner(engine, sched, tasks, rc), common::CheckError);
}

}  // namespace
}  // namespace sgprs::rt
