// Integration suite: the paper's headline claims as executable assertions.
//
// These are the "shape targets" from DESIGN.md §4 — who wins, by roughly
// what factor, where the crossovers fall. Runs use shorter horizons than
// the benches (1.5 s simulated) to stay fast, which costs a little metric
// precision; tolerances reflect that.
#include <gtest/gtest.h>

#include "dnn/builders.hpp"
#include "workload/spec.hpp"

namespace sgprs::workload {
namespace {

using common::SimTime;

ScenarioSpec spec_for(SchedulerKind kind, int contexts, double os,
                      int tasks) {
  ScenarioSpec spec;
  spec.base.scheduler = kind;
  spec.base.num_contexts = contexts;
  spec.base.oversubscription = os;
  spec.base.duration = SimTime::from_sec(1.5);
  spec.base.warmup = SimTime::from_ms(300);
  spec.tasks.emplace_back().count = tasks;
  return spec;
}

TEST(PaperShapes, NaivePivotsMuchEarlierThanSgprs) {
  // Scenario 1. Naive pivots around 14 tasks; SGPRS 2.0 around 24.
  auto naive = spec_for(SchedulerKind::kNaive, 2, 1.0, 1);
  auto sgprs = spec_for(SchedulerKind::kSgprs, 2, 2.0, 1);
  const auto naive_sweep = sweep_num_tasks(naive, 12, 26);
  const auto sgprs_sweep = sweep_num_tasks(sgprs, 12, 26);
  const int naive_pivot = find_pivot(naive_sweep, 12, 0.005);
  const int sgprs_pivot = find_pivot(sgprs_sweep, 12, 0.005);
  EXPECT_GE(sgprs_pivot - naive_pivot, 6)
      << "SGPRS must outlast naive by several tasks (paper: 14ish vs 23)";
  EXPECT_GE(sgprs_pivot, 21);
  EXPECT_LE(sgprs_pivot, 26);
}

TEST(PaperShapes, NaiveCollapsesToRoughly60PercentOfSgprs) {
  // Paper: naive 468 fps vs best SGPRS ~755 at max load (38% drop).
  const auto naive = run_spec(spec_for(SchedulerKind::kNaive, 2, 1.0, 30));
  const auto sgprs = run_spec(spec_for(SchedulerKind::kSgprs, 2, 2.0, 30));
  const double ratio = naive.fps() / sgprs.fps();
  EXPECT_GT(ratio, 0.45);
  EXPECT_LT(ratio, 0.75) << "naive must lose roughly 30-50%";
}

TEST(PaperShapes, NaiveDmrExplodesWhileSgprsStaysModerate) {
  const auto naive = run_spec(spec_for(SchedulerKind::kNaive, 2, 1.0, 28));
  const auto sgprs = run_spec(spec_for(SchedulerKind::kSgprs, 2, 1.5, 28));
  EXPECT_GT(naive.dmr(), 0.6) << "drastic degradation (paper Fig. 3b)";
  EXPECT_LT(sgprs.dmr(), 0.4) << "moderate slope (paper Fig. 3b)";
}

TEST(PaperShapes, Scenario1FpsMonotoneInOversubscription) {
  // Paper Fig. 3a: with only two contexts, more over-subscription is
  // always better (not enough contexts to cover the GPU otherwise).
  const auto r10 = run_spec(spec_for(SchedulerKind::kSgprs, 2, 1.0, 30));
  const auto r15 = run_spec(spec_for(SchedulerKind::kSgprs, 2, 1.5, 30));
  const auto r20 = run_spec(spec_for(SchedulerKind::kSgprs, 2, 2.0, 30));
  EXPECT_GE(r15.fps(), r10.fps() - 5.0);
  EXPECT_GE(r20.fps(), r10.fps() + 10.0)
      << "2.0x must clearly beat 1.0x in Scenario 1";
}

TEST(PaperShapes, Scenario2MidOversubscriptionWins) {
  // Paper Fig. 4a: with three contexts, 1.5x (741 fps) beats 2.0x (731).
  const auto r15 = run_spec(spec_for(SchedulerKind::kSgprs, 3, 1.5, 30));
  const auto r20 = run_spec(spec_for(SchedulerKind::kSgprs, 3, 2.0, 30));
  EXPECT_GT(r15.fps(), r20.fps())
      << "higher over-subscription must not win Scenario 2";
  // And the margin is small, as in the paper (741 vs 731 ~ 1.4%).
  EXPECT_LT((r15.fps() - r20.fps()) / r15.fps(), 0.10);
}

TEST(PaperShapes, SgprsSustainsFpsPastPivot) {
  // "SGPRS variations not only can sustain total FPS..." — FPS at 30
  // tasks must not fall more than a few percent below the peak.
  const auto sweep =
      sweep_num_tasks(spec_for(SchedulerKind::kSgprs, 2, 1.5, 1), 22, 30);
  double peak = 0.0;
  for (const auto& r : sweep) peak = std::max(peak, r.fps());
  EXPECT_GT(sweep.back().fps(), 0.93 * peak);
}

TEST(PaperShapes, BestPivotNearPaperValues) {
  // Paper: best-case pivots at 23 (S1) and 24 (S2) tasks. Allow +-2.
  auto s1 = spec_for(SchedulerKind::kSgprs, 2, 2.0, 1);
  auto s2 = spec_for(SchedulerKind::kSgprs, 3, 1.5, 1);
  const int p1 = find_pivot(sweep_num_tasks(s1, 20, 27), 20, 0.005);
  const int p2 = find_pivot(sweep_num_tasks(s2, 20, 27), 20, 0.005);
  EXPECT_GE(p1, 21);
  EXPECT_LE(p1, 26);
  EXPECT_GE(p2, 22);
  EXPECT_LE(p2, 26);
}

TEST(PaperShapes, ResnetSpeedupMatchesFig1) {
  dnn::Profiler prof(gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                     dnn::CostModel::calibrated());
  const auto net = dnn::resnet18();
  const double s68 = prof.network_speedup(net, 68);
  EXPECT_GE(s68, 21.0);
  EXPECT_LE(s68, 26.0);
  const auto model = gpu::SpeedupModel::rtx2080ti();
  EXPECT_NEAR(model.speedup(gpu::OpClass::kConv, 68), 32.0, 1e-9);
  EXPECT_NEAR(model.speedup(gpu::OpClass::kMaxPool, 68), 14.0, 1e-9);
}

}  // namespace
}  // namespace sgprs::workload
