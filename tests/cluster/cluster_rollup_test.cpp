#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "metrics/fleet.hpp"
#include "workload/scenario.hpp"
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
  d.utilization = util;
  return d;
}

/// Folds one device's latency distribution into `fleet`: one sample per
/// completed frame, all at `mean_ms`.
void fold_latency(common::Histogram& fleet, const metrics::DeviceReport& d,
                  double mean_ms) {
  common::Histogram device;
  for (std::int64_t i = 0; i < d.snapshot.counts.completed(); ++i) {
    device.add(mean_ms);
  }
  fleet.merge(device);
}

TEST(FleetRollup, CountsAndRatesSumAcrossDevices) {
  const auto a = device_report(0, 68, 4, 90, 10, 0, 100.0, 10.0, 0.5);
  const auto b = device_report(1, 82, 6, 180, 0, 20, 180.0, 20.0, 0.25);
  // The rollup derives fleet latency from the merged distributions, not
  // from the rows' scalar latency fields.
  common::Histogram latency;
  fold_latency(latency, a, 10.0);
  fold_latency(latency, b, 20.0);
  const auto fleet = metrics::roll_up({a, b}, latency, /*tasks_rejected=*/3);

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
  const auto fleet = metrics::roll_up({}, common::Histogram{}, 0);
  EXPECT_DOUBLE_EQ(fleet.fleet.fps, 0.0);
  EXPECT_DOUBLE_EQ(fleet.fleet.dmr, 0.0);
  EXPECT_DOUBLE_EQ(fleet.mean_utilization, 0.0);
}

// --- fleet_report against the report built the way it was before rows
// were read in place: each device's records merged into one, with a
// materialised histogram read by two quantile walks, and the device
// histograms merged into the fleet's in device order.

void expect_same(const metrics::Snapshot& got, const metrics::Snapshot& want,
                 const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.counts.released, want.counts.released);
  EXPECT_EQ(got.counts.dropped, want.counts.dropped);
  EXPECT_EQ(got.counts.on_time, want.counts.on_time);
  EXPECT_EQ(got.counts.late, want.counts.late);
  EXPECT_EQ(got.fps, want.fps);
  EXPECT_EQ(got.fps_on_time, want.fps_on_time);
  EXPECT_EQ(got.dmr, want.dmr);
  EXPECT_EQ(got.mean_latency_ms, want.mean_latency_ms);
  EXPECT_EQ(got.p50_latency_ms, want.p50_latency_ms);
  EXPECT_EQ(got.p99_latency_ms, want.p99_latency_ms);
  EXPECT_EQ(got.max_latency_ms, want.max_latency_ms);
}

/// Compares `c.fleet_report(end)` with the oracle, on every row and fleet
/// field; `col` is the collector `c` reduced into. Returns how many rows
/// held more than one stream (-1 when the row count is wrong).
int expect_report_matches_oracle(const cluster::Cluster& c,
                                 const metrics::Collector& col, SimTime end) {
  const metrics::FleetReport got = c.fleet_report(end);
  EXPECT_EQ(static_cast<int>(got.devices.size()), c.num_devices());
  if (static_cast<int>(got.devices.size()) != c.num_devices()) return -1;
  common::Histogram fleet_latency;
  metrics::Snapshot fleet;
  double weighted_util = 0.0;
  double total_sms = 0.0;
  int tasks_assigned = 0;
  int multi_stream_rows = 0;
  for (int i = 0; i < c.num_devices(); ++i) {
    const cluster::Cluster::Device& dev = c.device(i);
    // The device's streams, each once: a stream that came back holds two
    // entries in dev.tasks.
    std::vector<int> ids;
    for (const auto& t : dev.tasks) {
      if (std::find(dev.moved_away.begin(), dev.moved_away.end(), t.id) ==
              dev.moved_away.end() &&
          std::find(ids.begin(), ids.end(), t.id) == ids.end()) {
        ids.push_back(t.id);
      }
    }
    // The device's records merged one by one into a histogram of its own.
    common::Histogram device_latency;
    int records = 0;
    for (int id : ids) {
      if (!col.has_task(id)) continue;
      ++records;
      col.aggregate_tasks({id}, end, &device_latency);
    }
    multi_stream_rows += records > 1 ? 1 : 0;
    metrics::Snapshot row = col.aggregate_tasks(ids, end);
    row.p50_latency_ms = device_latency.quantile(0.50);
    row.p99_latency_ms = device_latency.quantile(0.99);
    row.max_latency_ms = device_latency.max();
    const metrics::DeviceReport& r = got.devices[i];
    expect_same(r.snapshot, row, "device " + std::to_string(i));
    const metrics::DeviceReport alone = c.device_report(i, end);
    expect_same(alone.snapshot, row, "device_report " + std::to_string(i));
    EXPECT_EQ(r.device_index, i);
    EXPECT_EQ(r.device_name, c.device_spec(i).name);
    EXPECT_EQ(r.total_sms, c.device_spec(i).total_sms);
    EXPECT_EQ(r.tasks_assigned, static_cast<int>(ids.size()));
    EXPECT_EQ(r.busy_sm_seconds, alone.busy_sm_seconds);
    EXPECT_EQ(r.utilization, alone.utilization);

    fleet_latency.merge(device_latency);
    fleet.counts.released += row.counts.released;
    fleet.counts.dropped += row.counts.dropped;
    fleet.counts.on_time += row.counts.on_time;
    fleet.counts.late += row.counts.late;
    fleet.fps += row.fps;
    fleet.fps_on_time += row.fps_on_time;
    weighted_util += static_cast<double>(r.total_sms) * r.utilization;
    total_sms += static_cast<double>(r.total_sms);
    tasks_assigned += r.tasks_assigned;
  }
  const auto closed = fleet.counts.closed();
  fleet.dmr = closed == 0 ? 0.0
                          : static_cast<double>(fleet.counts.late +
                                                fleet.counts.dropped) /
                                static_cast<double>(closed);
  if (!fleet_latency.empty()) {
    fleet.mean_latency_ms = fleet_latency.mean();
    fleet.p50_latency_ms = fleet_latency.quantile(0.50);
    fleet.p99_latency_ms = fleet_latency.quantile(0.99);
    fleet.max_latency_ms = fleet_latency.max();
  }
  EXPECT_GT(got.fleet.counts.completed(), 0);
  expect_same(got.fleet, fleet, "fleet");
  EXPECT_EQ(got.mean_utilization,
            total_sms > 0.0 ? weighted_util / total_sms : 0.0);
  EXPECT_EQ(got.tasks_assigned, tasks_assigned);
  int oom = 0;
  for (const auto& rej : c.rejected()) oom += rej.oom ? 1 : 0;
  EXPECT_EQ(got.tasks_rejected, static_cast<int>(c.rejected().size()));
  EXPECT_EQ(got.tasks_oom_rejected, oom);
  // The dynamic report's rows are the same rows, built with no fold.
  const auto rows = c.device_reports(end, nullptr);
  EXPECT_EQ(rows.size(), got.devices.size());
  for (std::size_t i = 0; i < std::min(rows.size(), got.devices.size()); ++i) {
    expect_same(rows[i].snapshot, got.devices[i].snapshot,
                "unfolded row " + std::to_string(i));
  }
  return multi_stream_rows;
}

/// A cluster of `spec`'s base config with its task set placed and started.
struct StaticRun {
  explicit StaticRun(const workload::ScenarioSpec& spec)
      : base(workload::lower(spec)),
        collector(base.warmup),
        fleet(engine, collector, workload::cluster_config_for(base)) {
    fleet.place(workload::task_builder_for(spec)(base, fleet.pool_sm_sizes()));
    rt::RunnerConfig run;
    run.duration = base.duration;
    run.jitter_seed = base.seed;
    fleet.start(run);
  }
  workload::ScenarioConfig base;
  sim::Engine engine;
  metrics::Collector collector;
  cluster::Cluster fleet;
};

workload::ScenarioSpec base_spec(workload::SchedulerKind kind, int tasks);

TEST(FleetReportOracle, StaticFleetWithMultiStreamDevices) {
  // Three devices of two specs, 20 streams round-robin: every row holds
  // several streams, read across their histograms.
  auto spec = base_spec(workload::SchedulerKind::kSgprs, 20);
  spec.fleet_mode = true;
  spec.base.fleet = {gpu::rtx2080ti(), gpu::rtx3090(), gpu::rtx2080ti()};
  spec.base.placement = cluster::PlacementPolicy::kRoundRobin;
  spec.base.admission_margin = 0.0;
  StaticRun run(spec);
  run.fleet.run_until(run.base.duration);
  run.fleet.reduce();
  EXPECT_EQ(expect_report_matches_oracle(run.fleet, run.collector,
                                         run.base.duration),
            3);
}

TEST(FleetReportOracle, FlakyFleetWithMovedStreams) {
  // flaky_fleet's devices and initial streams, with its failover's moves
  // made by hand: device 0's streams are re-placed (their history forgotten
  // at the source) onto the other two mid-run, and some return later, so
  // a stream's records span devices and merge at reduce().
  const auto spec = workload::load_scenario_spec(
      std::string(SGPRS_SOURCE_DIR) + "/scenarios/flaky_fleet.json");
  StaticRun run(spec);
  const SimTime end = run.base.duration;
  auto move_all = [&](int from, std::vector<int> to) {
    std::vector<rt::Task> moved;
    for (const auto& t : run.fleet.device(from).tasks) {
      if (run.fleet.retire_task(from, t.id, /*forget_metrics=*/true)) {
        moved.push_back(t);
      }
    }
    for (std::size_t k = 0; k < moved.size(); ++k) {
      run.fleet.admit_task(to[k % to.size()], moved[k]);
    }
    return static_cast<int>(moved.size());
  };
  run.fleet.run_until(SimTime::from_sec(1.0));
  EXPECT_GT(move_all(0, {1, 2}), 0);
  run.fleet.run_until(SimTime::from_sec(2.0));
  EXPECT_GT(move_all(1, {0}), 0);
  run.fleet.run_until(end);
  run.fleet.reduce();
  EXPECT_GE(expect_report_matches_oracle(run.fleet, run.collector, end), 1);
}

TEST(FleetReportRows, StreamMovedAwayAndBackIsReportedOnce) {
  // One flaky_fleet stream leaves device 0 for device 1, its history
  // forgotten at each source, and comes back: device 0 reports it again,
  // once, and the rows account for every release.
  const auto spec = workload::load_scenario_spec(
      std::string(SGPRS_SOURCE_DIR) + "/scenarios/flaky_fleet.json");
  StaticRun run(spec);
  const SimTime end = run.base.duration;
  int streams = 0;
  for (int i = 0; i < run.fleet.num_devices(); ++i) {
    streams += static_cast<int>(run.fleet.device(i).tasks.size());
  }
  const int on_device0 = static_cast<int>(run.fleet.device(0).tasks.size());
  const rt::Task moved = run.fleet.device(0).tasks.front();
  run.fleet.run_until(SimTime::from_sec(1.0));
  ASSERT_TRUE(run.fleet.retire_task(0, moved.id, /*forget_metrics=*/true));
  run.fleet.admit_task(1, moved);
  run.fleet.run_until(SimTime::from_sec(2.0));
  ASSERT_TRUE(run.fleet.retire_task(1, moved.id, /*forget_metrics=*/true));
  run.fleet.admit_task(0, moved);
  run.fleet.run_until(end);
  run.fleet.reduce();

  const auto rows = run.fleet.device_reports(end, nullptr);
  int listed = 0;
  std::int64_t released = 0;
  for (const auto& r : rows) {
    listed += r.tasks_assigned;
    released += r.snapshot.counts.released;
  }
  EXPECT_EQ(listed, streams);
  EXPECT_EQ(rows[0].tasks_assigned, on_device0);
  EXPECT_EQ(released, run.collector.aggregate(end).counts.released);
  EXPECT_GT(released, 0);
}

TEST(FleetReportRows, CorrelatedOutageReportsStreamsFailedBack) {
  // Device 2 crashes, and streams fail over back onto it once it
  // recovers: its row must list them.
  const auto result = workload::run_spec(workload::load_scenario_spec(
      std::string(SGPRS_SOURCE_DIR) + "/scenarios/correlated_outage.json"));
  ASSERT_TRUE(result.dynamic);
  ASSERT_GT(result.dyn.fleet.devices.size(), 2u);
  const metrics::DeviceReport& row = result.dyn.fleet.devices[2];
  EXPECT_GT(row.tasks_assigned, 0);
  EXPECT_GT(row.snapshot.counts.released, 0);
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
