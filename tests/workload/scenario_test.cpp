// Closed-world runs of the paper's workload: one task entry of identical
// ResNet18 streams on one device, run through run_spec.
#include <gtest/gtest.h>

#include "workload/spec.hpp"

namespace sgprs::workload {
namespace {

using common::SimTime;

ScenarioSpec quick(SchedulerKind kind, int tasks, int contexts = 2,
                   double os = 1.0) {
  ScenarioSpec spec;
  spec.base.scheduler = kind;
  spec.base.num_contexts = contexts;
  spec.base.oversubscription = os;
  spec.base.duration = SimTime::from_sec(1.0);
  spec.base.warmup = SimTime::from_ms(200);
  spec.tasks.emplace_back().count = tasks;
  return spec;
}

/// The SpecError path a spec fails validation at, "<no error>" when it
/// passes.
std::string path_of(const ScenarioSpec& spec) {
  try {
    validate(spec);
  } catch (const SpecError& e) {
    return e.path();
  }
  return "<no error>";
}

TEST(Scenario, LowLoadMeetsEveryDeadlineBothSchedulers) {
  for (auto kind : {SchedulerKind::kSgprs, SchedulerKind::kNaive}) {
    const auto r = run_spec(quick(kind, 4));
    EXPECT_DOUBLE_EQ(r.dmr(), 0.0) << to_string(kind);
    EXPECT_NEAR(r.fps(), 120.0, 6.0) << to_string(kind);
    EXPECT_EQ(static_cast<int>(r.single.per_task.size()), 4);
  }
}

TEST(Scenario, DeterministicForSameSeed) {
  const auto a = run_spec(quick(SchedulerKind::kSgprs, 10));
  const auto b = run_spec(quick(SchedulerKind::kSgprs, 10));
  EXPECT_EQ(a.aggregate().counts.released, b.aggregate().counts.released);
  EXPECT_DOUBLE_EQ(a.fps(), b.fps());
  EXPECT_DOUBLE_EQ(a.dmr(), b.dmr());
  EXPECT_EQ(a.migrations(), b.migrations());
}

TEST(Scenario, SeedChangesPhasesButNotHealth) {
  auto spec = quick(SchedulerKind::kSgprs, 8);
  const auto a = run_spec(spec);
  spec.base.seed = 999;
  const auto b = run_spec(spec);
  // Different phases -> different event interleavings, same zero-miss
  // behaviour at low load.
  EXPECT_DOUBLE_EQ(a.dmr(), 0.0);
  EXPECT_DOUBLE_EQ(b.dmr(), 0.0);
}

TEST(Scenario, SgprsOutlastsNaivePivot) {
  // The paper's central claim at sweep granularity: there is a task count
  // where the naive scheduler misses deadlines but SGPRS does not.
  const int n = 19;
  const auto naive = run_spec(quick(SchedulerKind::kNaive, n));
  const auto sgprs = run_spec(quick(SchedulerKind::kSgprs, n, 2, 2.0));
  EXPECT_GT(naive.dmr(), 0.05);
  EXPECT_DOUBLE_EQ(sgprs.dmr(), 0.0);
  EXPECT_GT(sgprs.fps(), naive.fps());
}

TEST(Scenario, NaiveIgnoresOversubscription) {
  const auto a = run_spec(quick(SchedulerKind::kNaive, 10, 2, 1.0));
  const auto b = run_spec(quick(SchedulerKind::kNaive, 10, 2, 2.0));
  EXPECT_DOUBLE_EQ(a.fps(), b.fps()) << "naive pool is always os=1.0";
}

TEST(Scenario, MigrationCountersOnlyForSgprs) {
  const auto naive = run_spec(quick(SchedulerKind::kNaive, 6));
  EXPECT_EQ(naive.migrations(), 0);
  const auto sgprs = run_spec(quick(SchedulerKind::kSgprs, 6));
  EXPECT_GT(sgprs.migrations(), 0);
}

TEST(Scenario, CustomNetworkBuilder) {
  auto spec = quick(SchedulerKind::kSgprs, 2);
  spec.tasks[0].network = "lenet5";
  spec.tasks[0].num_stages = 3;
  const auto r = run_spec(spec);
  EXPECT_DOUBLE_EQ(r.dmr(), 0.0);
  EXPECT_NEAR(r.fps(), 60.0, 3.0);
}

TEST(Scenario, SweepProducesOneResultPerCount) {
  auto spec = quick(SchedulerKind::kSgprs, 1);
  spec.base.duration = SimTime::from_ms(600);
  spec.base.warmup = SimTime::from_ms(100);
  const auto sweep = sweep_num_tasks(spec, 2, 6);
  ASSERT_EQ(sweep.size(), 5u);
  // FPS grows linearly with task count below the pivot.
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_NEAR(sweep[i].fps(), 30.0 * (2 + static_cast<int>(i)), 6.0);
  }
}

TEST(Scenario, FindPivotIdentifiesFirstMiss) {
  // Synthesize sweep results rather than running 20 simulations.
  std::vector<SpecResult> sweep(5);
  for (auto& r : sweep) r.single.aggregate.dmr = 0.0;
  EXPECT_EQ(find_pivot(sweep, 10), 14) << "no misses -> last count";
  sweep[3].single.aggregate.dmr = 0.02;
  sweep[4].single.aggregate.dmr = 0.10;
  EXPECT_EQ(find_pivot(sweep, 10), 12);
  sweep[0].single.aggregate.dmr = 0.5;
  EXPECT_EQ(find_pivot(sweep, 10), 9) << "missing from the start";
}

TEST(Scenario, GpuBusyAccountingPositive) {
  const auto r = run_spec(quick(SchedulerKind::kSgprs, 4));
  EXPECT_GT(r.single.gpu_busy_sm_seconds, 0.0);
  EXPECT_GT(r.single.sim_events, 0.0);
}

TEST(Scenario, InvalidConfigThrows) {
  EXPECT_THROW(run_spec(quick(SchedulerKind::kSgprs, 0)), SpecError);
  auto spec = quick(SchedulerKind::kSgprs, 1);
  spec.base.warmup = spec.base.duration;
  EXPECT_THROW(run_spec(spec), SpecError);
}

TEST(Scenario, SweepNeedsOneEntryAndAnOrderedRange) {
  auto spec = quick(SchedulerKind::kSgprs, 1);
  EXPECT_THROW(sweep_num_tasks(spec, 0, 3), SpecError);
  EXPECT_THROW(sweep_num_tasks(spec, 4, 3), SpecError);
  spec.tasks.push_back(spec.tasks[0]);
  EXPECT_THROW(sweep_num_tasks(spec, 1, 2), SpecError);
}

TEST(Scenario, ValidateIsTheSingleCheckedEntryPoint) {
  EXPECT_EQ(path_of(quick(SchedulerKind::kSgprs, 4)), "<no error>");

  auto spec = quick(SchedulerKind::kSgprs, 4);
  spec.tasks[0].fps = 0.0;
  EXPECT_EQ(path_of(spec), "spec.tasks[0].fps");
  spec = quick(SchedulerKind::kSgprs, 4);
  spec.tasks[0].num_stages = 0;
  EXPECT_EQ(path_of(spec), "spec.tasks[0].stages");
  spec = quick(SchedulerKind::kSgprs, 4);
  spec.base.num_devices = 0;
  EXPECT_EQ(path_of(spec), "spec.fleet.devices");
  spec.base.fleet = {gpu::rtx3090()};  // an explicit fleet satisfies it
  EXPECT_EQ(path_of(spec), "<no error>");
}

TEST(Scenario, ValidateMessagesNameTheField) {
  auto spec = quick(SchedulerKind::kSgprs, 4);
  spec.base.oversubscription = 0.5;
  try {
    validate(spec);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "spec.pool.oversubscription");
    EXPECT_NE(std::string(e.what()).find("spec.pool.oversubscription"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace sgprs::workload
