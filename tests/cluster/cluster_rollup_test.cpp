#include <gtest/gtest.h>

#include "metrics/fleet.hpp"
#include "workload/spec.hpp"

namespace sgprs {
namespace {

using common::SimTime;

metrics::DeviceReport device_report(int index, int sms, int tasks,
                                    std::int64_t on_time, std::int64_t late,
                                    std::int64_t dropped, double fps,
                                    double mean_ms, double util) {
  metrics::DeviceReport d;
  d.device_index = index;
  d.total_sms = sms;
  d.tasks_assigned = tasks;
  d.snapshot.counts.released = on_time + late + dropped;
  d.snapshot.counts.on_time = on_time;
  d.snapshot.counts.late = late;
  d.snapshot.counts.dropped = dropped;
  d.snapshot.fps = fps;
  d.snapshot.fps_on_time = fps;
  d.snapshot.mean_latency_ms = mean_ms;
  d.snapshot.p50_latency_ms = mean_ms;
  d.snapshot.p99_latency_ms = 2.0 * mean_ms;
  d.snapshot.max_latency_ms = 3.0 * mean_ms;
  // The rollup derives fleet latency from merged histograms, not from the
  // scalar fields above: one sample per completed frame, all at mean_ms.
  for (std::int64_t i = 0; i < on_time + late; ++i) {
    d.snapshot.latency_hist_ms.add(mean_ms);
  }
  d.utilization = util;
  return d;
}

TEST(FleetRollup, CountsAndRatesSumAcrossDevices) {
  const auto a = device_report(0, 68, 4, 90, 10, 0, 100.0, 10.0, 0.5);
  const auto b = device_report(1, 82, 6, 180, 0, 20, 180.0, 20.0, 0.25);
  const auto fleet = metrics::roll_up({a, b}, /*tasks_rejected=*/3);

  EXPECT_EQ(fleet.fleet.counts.on_time, 270);
  EXPECT_EQ(fleet.fleet.counts.late, 10);
  EXPECT_EQ(fleet.fleet.counts.dropped, 20);
  EXPECT_EQ(fleet.fleet.counts.released, 300);
  EXPECT_DOUBLE_EQ(fleet.fleet.fps, 280.0);
  // DMR recomputed from summed counts: (10 late + 20 dropped) / 300.
  EXPECT_DOUBLE_EQ(fleet.fleet.dmr, 0.1);
  // Latency comes from the merged histograms (exact distribution merge):
  // 100 samples at 10 ms and 180 at 20 ms.
  EXPECT_DOUBLE_EQ(fleet.fleet.mean_latency_ms,
                   (100.0 * 10.0 + 180.0 * 20.0) / 280.0);
  EXPECT_DOUBLE_EQ(fleet.fleet.max_latency_ms, 20.0);
  // The fleet median sits in the 20 ms mass (rank 139.5 of 280), exactly —
  // no per-device percentile averaging.
  EXPECT_DOUBLE_EQ(fleet.fleet.p50_latency_ms, 20.0);
  // Utilization weights by SM count: (68*0.5 + 82*0.25) / 150.
  EXPECT_DOUBLE_EQ(fleet.mean_utilization, (68.0 * 0.5 + 82.0 * 0.25) / 150.0);
  EXPECT_EQ(fleet.tasks_assigned, 10);
  EXPECT_EQ(fleet.tasks_rejected, 3);
}

TEST(FleetRollup, EmptyFleetIsAllZero) {
  const auto fleet = metrics::roll_up({}, 0);
  EXPECT_DOUBLE_EQ(fleet.fleet.fps, 0.0);
  EXPECT_DOUBLE_EQ(fleet.fleet.dmr, 0.0);
  EXPECT_DOUBLE_EQ(fleet.mean_utilization, 0.0);
}

workload::ScenarioSpec base_spec(workload::SchedulerKind kind, int tasks) {
  workload::ScenarioSpec spec;
  spec.base.scheduler = kind;
  spec.base.num_contexts = 2;
  spec.base.oversubscription = 1.5;
  spec.base.duration = SimTime::from_sec(1.0);
  spec.base.warmup = SimTime::from_ms(200);
  spec.tasks.emplace_back().count = tasks;
  return spec;
}

/// The spec's run as a closed-world fleet (placement + admission).
auto run_fleet(workload::ScenarioSpec spec) {
  spec.fleet_mode = true;
  return workload::run_spec(spec).cluster;
}

TEST(ClusterScenario, OneDeviceClusterIsBitIdenticalToSingleGpu) {
  for (auto kind :
       {workload::SchedulerKind::kSgprs, workload::SchedulerKind::kNaive}) {
    const auto spec = base_spec(kind, 8);
    const auto single = workload::run_spec(spec).single;
    const auto fleet = run_fleet(spec);

    ASSERT_EQ(static_cast<int>(fleet.fleet.devices.size()), 1);
    const auto& dev = fleet.fleet.devices[0].snapshot;
    const auto& agg = single.aggregate;
    EXPECT_EQ(fleet.rejected_task_ids.size(), 0u) << to_string(kind);
    EXPECT_EQ(dev.counts.released, agg.counts.released) << to_string(kind);
    EXPECT_EQ(dev.counts.on_time, agg.counts.on_time) << to_string(kind);
    EXPECT_EQ(dev.counts.late, agg.counts.late) << to_string(kind);
    EXPECT_EQ(dev.counts.dropped, agg.counts.dropped) << to_string(kind);
    EXPECT_DOUBLE_EQ(dev.fps, agg.fps) << to_string(kind);
    EXPECT_DOUBLE_EQ(dev.dmr, agg.dmr) << to_string(kind);
    EXPECT_DOUBLE_EQ(dev.p50_latency_ms, agg.p50_latency_ms)
        << to_string(kind);
    EXPECT_DOUBLE_EQ(dev.p99_latency_ms, agg.p99_latency_ms)
        << to_string(kind);
    EXPECT_EQ(fleet.releases, single.releases) << to_string(kind);
    EXPECT_EQ(fleet.stage_migrations, single.stage_migrations)
        << to_string(kind);
    EXPECT_EQ(fleet.medium_promotions, single.medium_promotions)
        << to_string(kind);
    EXPECT_DOUBLE_EQ(fleet.fleet.devices[0].busy_sm_seconds,
                     single.gpu_busy_sm_seconds)
        << to_string(kind);
  }
}

TEST(ClusterScenario, SingleGpuRunPlacesEveryTaskPastTheAdmissionLimit) {
  // A spec without a fleet section is a one-device cluster with admission
  // disabled: at a task count where the default 0.95 margin rejects
  // streams on the same device, it still runs every task.
  const auto spec = base_spec(workload::SchedulerKind::kSgprs, 30);
  ASSERT_DOUBLE_EQ(spec.base.admission_margin, 0.95);
  const auto fleet = run_fleet(spec);
  ASSERT_GT(fleet.rejected_task_ids.size(), 0u);

  const auto single = workload::run_spec(spec).single;
  EXPECT_EQ(static_cast<int>(single.per_task.size()), spec.tasks[0].count);
  for (const auto& t : single.per_task) EXPECT_GT(t.counts.released, 0);
}

TEST(ClusterScenario, FleetAggregateEqualsSumOfPerDevice) {
  auto spec = base_spec(workload::SchedulerKind::kSgprs, 18);
  spec.base.num_devices = 3;
  spec.base.placement = cluster::PlacementPolicy::kRoundRobin;
  const auto r = run_fleet(spec);

  ASSERT_EQ(static_cast<int>(r.fleet.devices.size()), 3);
  std::int64_t released = 0, on_time = 0, late = 0, dropped = 0;
  double fps = 0.0;
  int tasks = 0;
  for (const auto& d : r.fleet.devices) {
    released += d.snapshot.counts.released;
    on_time += d.snapshot.counts.on_time;
    late += d.snapshot.counts.late;
    dropped += d.snapshot.counts.dropped;
    fps += d.snapshot.fps;
    tasks += d.tasks_assigned;
    EXPECT_EQ(d.tasks_assigned, 6);  // round-robin spreads 18 evenly
  }
  EXPECT_EQ(r.fleet.fleet.counts.released, released);
  EXPECT_EQ(r.fleet.fleet.counts.on_time, on_time);
  EXPECT_EQ(r.fleet.fleet.counts.late, late);
  EXPECT_EQ(r.fleet.fleet.counts.dropped, dropped);
  EXPECT_DOUBLE_EQ(r.fleet.fleet.fps, fps);
  EXPECT_EQ(r.fleet.tasks_assigned + r.fleet.tasks_rejected, 18);
  EXPECT_EQ(tasks, r.fleet.tasks_assigned);
}

TEST(ClusterScenario, HeterogeneousFleetRunsAndUsesEveryDevice) {
  auto spec = base_spec(workload::SchedulerKind::kSgprs, 12);
  spec.base.fleet = {gpu::rtx2080ti(), gpu::rtx3090()};
  spec.base.placement = cluster::PlacementPolicy::kLeastLoaded;
  const auto r = run_fleet(spec);

  ASSERT_EQ(static_cast<int>(r.fleet.devices.size()), 2);
  EXPECT_EQ(r.fleet.devices[0].total_sms, 68);
  EXPECT_EQ(r.fleet.devices[1].total_sms, 82);
  for (const auto& d : r.fleet.devices) {
    EXPECT_GT(d.tasks_assigned, 0);
    EXPECT_GT(d.snapshot.fps, 0.0);
    EXPECT_GT(d.utilization, 0.0);
  }
  // Light load on a two-device fleet: nothing rejected, nothing missed.
  EXPECT_EQ(r.fleet.tasks_rejected, 0);
  EXPECT_DOUBLE_EQ(r.dmr(), 0.0);
}

TEST(ClusterScenario, SaturatedFleetRejectsButNeverMisses) {
  auto spec = base_spec(workload::SchedulerKind::kSgprs, 60);
  spec.base.num_devices = 2;
  spec.base.placement = cluster::PlacementPolicy::kBinPackUtilization;
  const auto r = run_fleet(spec);
  // Admission sheds the overload up front...
  EXPECT_GT(r.fleet.tasks_rejected, 0);
  EXPECT_EQ(static_cast<int>(r.rejected_task_ids.size()),
            r.fleet.tasks_rejected);
  // ...so the admitted set still runs clean (the margin is conservative).
  EXPECT_DOUBLE_EQ(r.dmr(), 0.0);
}

}  // namespace
}  // namespace sgprs
