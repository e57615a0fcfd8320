// The base config of a run: scheduler, pool shape, device/fleet, sim
// window and seeds — everything but the task set, which a ScenarioSpec's
// task entries (or generator) describe. workload/spec.hpp wraps it in the
// spec that every caller runs through run_spec; this header also holds the
// closed-world result shapes and the config-to-cluster lowering the
// fleet runtime uses.
#pragma once

#include <functional>
#include <vector>

#include "cluster/placement.hpp"
#include "gpu/context_pool.hpp"
#include "gpu/device.hpp"
#include "metrics/collector.hpp"
#include "metrics/fleet.hpp"
#include "rt/naive_scheduler.hpp"
#include "rt/scheduler_kind.hpp"
#include "rt/sgprs_scheduler.hpp"

namespace sgprs::cluster {
struct ClusterConfig;
}  // namespace sgprs::cluster

namespace sgprs::workload {

using common::SimTime;

/// Scheduler selection now lives in rt/scheduler_kind.hpp (one parse/print
/// site shared by the CLI, benches and the cluster layer); the alias keeps
/// every existing workload:: spelling working. to_string() is found via
/// ADL on the rt enum.
using SchedulerKind = rt::SchedulerKind;

struct ScenarioConfig {
  SchedulerKind scheduler = SchedulerKind::kSgprs;
  /// Context pool shape. The paper's Scenario 1 is 2 contexts, Scenario 2
  /// is 3. Over-subscription applies to SGPRS; the naive baseline always
  /// partitions the device exactly (os = 1.0) since it has no notion of an
  /// over-subscribed pool.
  int num_contexts = 2;
  double oversubscription = 1.0;
  /// Heterogeneous pool override: explicit per-context SM limits. When
  /// non-empty this wins over num_contexts/oversubscription (SGPRS only;
  /// the naive pool stays uniform).
  std::vector<int> context_sms;

  /// Randomize task phases uniformly in [0, period) — sensor frames are
  /// not phase-aligned in practice. Seeded for reproducibility.
  bool jitter_phases = true;
  std::uint64_t seed = 42;

  SimTime duration = SimTime::from_sec(3.0);
  SimTime warmup = SimTime::from_sec(0.5);

  rt::SgprsConfig sgprs;
  rt::NaiveConfig naive;
  gpu::DeviceSpec device = gpu::rtx2080ti();
  gpu::SharingParams sharing;  // calibrated defaults

  /// --- Fleet (a spec's "fleet" section) ---
  /// Number of devices, each a copy of `device`. `fleet` (when non-empty)
  /// wins and allows heterogeneous specs.
  int num_devices = 1;
  std::vector<gpu::DeviceSpec> fleet;
  cluster::PlacementPolicy placement =
      cluster::PlacementPolicy::kLeastLoaded;
  /// Fleet admission budget (fraction of saturated per-device capacity);
  /// <= 0 disables admission control so every task is placed.
  double admission_margin = 0.95;
  /// Admissible fraction of each device's resident-warp capacity.
  double occupancy_threshold = 0.9;
  /// Device memory override in MiB, applied to every device spec (the
  /// memory-constrained scenarios); 0 keeps each spec's own budget.
  double device_mem_mb = 0.0;

  /// Intra-run parallelism for every run: partition the devices into this
  /// many shards, each on its own event calendar (cluster::ClusterConfig::
  /// shards, docs/sharding.md). The fleet runtime, which runs every spec,
  /// executes the shards between control-plane epoch barriers. 1 runs its
  /// one shard on the calling thread. Results are byte-identical at any
  /// shard count (pinned by the shard determinism suite); only wall-clock
  /// changes.
  int shards = 1;
};

/// Result of a single-device closed-world run (SpecResult::single).
struct ScenarioResult {
  metrics::Snapshot aggregate;
  std::vector<metrics::Snapshot> per_task;
  std::int64_t releases = 0;
  std::int64_t stage_migrations = 0;   // SGPRS only
  std::int64_t medium_promotions = 0;  // SGPRS only
  double sim_events = 0.0;
  double gpu_busy_sm_seconds = 0.0;

  double fps() const { return aggregate.fps; }
  double dmr() const { return aggregate.dmr; }
};

/// Result of a closed-world fleet run (SpecResult::cluster): per-device +
/// rolled-up metrics plus the scheduler counters summed across devices.
struct ClusterScenarioResult {
  metrics::FleetReport fleet;
  std::vector<int> rejected_task_ids;
  std::int64_t releases = 0;
  std::int64_t stage_migrations = 0;   // SGPRS only
  std::int64_t medium_promotions = 0;  // SGPRS only
  double sim_events = 0.0;

  double fps() const { return fleet.fleet.fps; }
  double dmr() const { return fleet.fleet.dmr; }
};

/// Context-pool shape one device of this config gets (the naive baseline
/// is clamped to pure spatial partitioning: one stream per context, no
/// over-subscription). Shared by the single-GPU, cluster and fleet paths.
gpu::ContextPoolConfig pool_config_for(const ScenarioConfig& cfg);

/// `spec` under this config's device-memory override (device_mem_mb MiB;
/// 0 keeps the spec's own budget).
gpu::DeviceSpec device_spec_for(const ScenarioConfig& cfg,
                                gpu::DeviceSpec spec);

/// The cluster this config describes: its device list (memory override
/// applied), placement, admission, scheduler, pool and sharing settings.
/// The one place a ClusterConfig is filled from a ScenarioConfig; the
/// fleet runtime adds its hooks to it.
cluster::ClusterConfig cluster_config_for(const ScenarioConfig& cfg);

/// Task-set construction hook: given the run's config and the distinct
/// context SM sizes to profile WCETs at, produce the tasks to run.
/// workload::task_builder_for returns the one a spec describes.
using TaskSetBuilder = std::function<std::vector<rt::Task>(
    const ScenarioConfig& cfg, const std::vector<int>& pool_sm_sizes)>;

}  // namespace sgprs::workload
