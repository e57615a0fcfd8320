// Multi-GPU cluster: N simulated devices, each with its own Executor,
// ContextPool and per-device scheduler (SGPRS or naive), fronted by a
// Placer that assigns admitted tasks to devices. This is the only code that
// wires a device together; every run goes through it (the fleet runtime
// builds one per spec), with one device layout
// (docs/sharding.md): device i runs on shard i % shards, each shard an
// event calendar of its own, and records into a collector of its own.
// reduce() folds the per-device collectors, in device-index order, into
// the constructor's collector, so per-device metrics are subset
// aggregations and the fleet aggregate is exact at any shard count. All
// devices of one spec are identical (pools are built once, offline), so
// what the cluster derives from a spec is computed once, in a record per
// distinct spec (a device type), and each shard keeps one
// gpu::DeviceClassMemo per type, attached to its executors of that type.
//
// Closed-world lifecycle: construct → place(tasks) → start(cfg) →
// run_until(T) → reduce() → fleet_report(T).
//
// Open-world surface (the fleet runtime, src/fleet/): add_device() grows
// the fleet mid-run, set_device_active() gates placement for warm-up and
// drain phases, admit_task()/retire_task() churn streams on a started
// device. Task storage is a per-device deque, so admitted tasks have
// stable addresses for the runner and in-flight jobs even as streams
// churn.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/placer.hpp"
#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "gpu/context_pool.hpp"
#include "gpu/device.hpp"
#include "gpu/executor.hpp"
#include "metrics/collector.hpp"
#include "metrics/fleet.hpp"
#include "rt/runner.hpp"
#include "rt/scheduler.hpp"
#include "rt/scheduler_kind.hpp"
#include "rt/sgprs_scheduler.hpp"
#include "rt/naive_scheduler.hpp"
#include "sim/engine.hpp"

namespace sgprs::obs {
class JobTracer;
}  // namespace sgprs::obs

namespace sgprs::cluster {

using common::SimTime;

struct ClusterConfig {
  /// One entry per device; heterogeneous fleets just list different specs.
  std::vector<gpu::DeviceSpec> devices;
  PlacementPolicy placement = PlacementPolicy::kLeastLoaded;
  /// Admission budget as a fraction of saturated capacity; <= 0 disables
  /// admission control (every task is placed).
  double admission_margin = 0.95;
  /// Admissible fraction of each device's resident-warp capacity
  /// (rt::ResourceBudget; CASE exemplar value 0.9).
  double occupancy_threshold = 0.9;
  rt::SchedulerKind scheduler = rt::SchedulerKind::kSgprs;
  /// Context pool shape, replicated on every device.
  gpu::ContextPoolConfig pool;
  rt::SgprsConfig sgprs;
  rt::NaiveConfig naive;
  gpu::SharingParams sharing;
  /// Event calendars the devices are partitioned onto (docs/sharding.md):
  /// device i runs on shard i % shards. Shard 0 is the constructor's
  /// engine and runs on the calling thread; the cluster owns shards
  /// 1..N-1 and a pool of N-1 threads to run them. Any count gives
  /// byte-identical results; only wall-clock changes.
  int shards = 1;
  /// Optional decorator applied to every per-device scheduler as it is
  /// created (the fleet overload guard), given the device's collector.
  /// Absent = schedulers run bare.
  std::function<std::unique_ptr<rt::Scheduler>(
      std::unique_ptr<rt::Scheduler> inner, int device_index,
      metrics::Collector& collector)>
      wrap_scheduler;
  /// Optional execution-span tracer per device (src/obs/span.hpp,
  /// --trace-spans). Called once as each device's scheduler stack is
  /// created; returning nullptr leaves that device untraced. The tracer
  /// must outlive the cluster. Absent = no tracing (zero overhead beyond
  /// one null check per scheduler hook).
  std::function<obs::JobTracer*(int device_index)> tracer_for;
};

/// Upper bound on ClusterConfig::shards, for every input that sets it
/// (a spec's sim.shards, --shards). Each shard beyond the first is a
/// thread; the largest count CI runs is 8, and the bound leaves 8x
/// headroom while turning a mistyped count into an error instead of a
/// thread storm.
inline constexpr int kMaxShards = 64;

/// Shard owning device `device_index` in a `num_shards`-way partition:
/// round-robin by construction index, a pure function of the two, never
/// of admission order, placement outcomes or thread scheduling. Devices
/// the autoscaler adds land on rotating shards, keeping the partition
/// balanced under growth without ever re-homing an existing device.
inline int shard_of(int device_index, int num_shards) {
  SGPRS_CHECK(device_index >= 0);
  SGPRS_CHECK(num_shards >= 1);
  return device_index % num_shards;
}

/// Context SM sizes one device of `spec` would expose under `pool`,
/// first-seen order — so task WCETs can be profiled for devices the
/// autoscaler may add before any such device exists.
std::vector<int> pool_sm_sizes_for(const gpu::DeviceSpec& spec,
                                   const gpu::ContextPoolConfig& pool);

class Cluster {
 public:
  struct Device {
    int type = 0;  // index of the device's spec in the cluster's types
    std::unique_ptr<gpu::Executor> exec;
    std::unique_ptr<gpu::ContextPool> pool;
    std::unique_ptr<rt::Scheduler> scheduler;
    /// Tasks admitted here (deque: stable addresses under churn).
    std::deque<rt::Task> tasks;
    /// Task ids re-placed onto another device: the stream's metrics are
    /// reported by its final home, so this device's report skips them.
    std::vector<int> moved_away;
    std::unique_ptr<rt::Runner> runner;
  };

  /// Creates every device's executor, pool and scheduler up front (the
  /// SGPRS zero-runtime-reconfiguration property, fleet-wide). `engine` is
  /// shard 0; `collector` receives the reduced metrics and sets the
  /// warm-up window of every per-device collector.
  Cluster(sim::Engine& engine, metrics::Collector& collector,
          ClusterConfig cfg);

  int num_devices() const { return static_cast<int>(devices_.size()); }
  const Device& device(int i) const { return devices_.at(i); }
  /// Device `i`'s spec, one copy shared by every device of its type.
  const gpu::DeviceSpec& device_spec(int i) const {
    return types_[devices_.at(i).type].spec;
  }
  Placer& placer() { return *placer_; }
  const Placer& placer() const { return *placer_; }

  /// Distinct context SM sizes across the fleet, first-seen order. Profile
  /// task WCETs at exactly these sizes before placing.
  std::vector<int> pool_sm_sizes() const;

  /// A task place() rejected: its id, and whether it failed on memory
  /// alone (cluster::PlaceResult::oom).
  struct Rejected {
    int id = -1;
    bool oom = false;
  };

  /// Places each task as one batch (Placer::place_batch); rejected tasks
  /// are kept for reporting as ids, in task order.
  void place(std::vector<rt::Task> tasks);
  const std::vector<Rejected>& rejected() const { return rejected_; }

  /// Arms periodic releases on every device (admits tasks into the
  /// per-device schedulers). Call once after place(); then run_until().
  void start(const rt::RunnerConfig& rcfg);

  /// Runs every shard's device events up to and including `t`: shard 0 on
  /// the calling thread, the rest in parallel on the pool. A barrier:
  /// every shard reaches `t` before the first exception propagates.
  void run_until(SimTime t);

  /// Folds every per-device collector, in device-index order, into the
  /// constructor's collector and leaves them empty. Call once the run is
  /// over, before reading device_report()/fleet_report().
  void reduce();

  /// Job counters summed over the per-device collectors (integer sums,
  /// so order- and shard-count-invariant). Reads the run so far; call
  /// before reduce().
  metrics::TaskCounters total_counts() const;

  /// Events fired on every shard calendar.
  std::size_t events_processed() const;

  /// Device-class memos held, one per (shard, device type) in use.
  std::size_t memo_count() const;

  // --- Open-world (fleet runtime) surface ---

  /// Adds a device mid-run (or before start). Its scheduler/pool/executor
  /// are created immediately; when `active` is false the placer will not
  /// use it until set_device_active(i, true) — autoscaler warm-up latency.
  int add_device(const gpu::DeviceSpec& spec, bool active = true);
  void set_device_active(int i, bool active) {
    placer_->set_device_active(i, active);
  }
  bool device_active(int i) const { return placer_->device_active(i); }

  /// Admits one stream onto device `i`: stores it (stable address) and —
  /// when the cluster is started — arms its releases from now on. Returns
  /// the stored task. Which device (and its admission-capacity accounting)
  /// is the caller's business, normally a preceding placer().place() that
  /// chose `i`.
  const rt::Task& admit_task(int i, rt::Task task);

  /// Retires stream `task_id` from device `i`: future releases stop
  /// (generation-tagged cancel), in-flight jobs drain, admission capacity
  /// is released. `forget_metrics` additionally drops the id from this
  /// device's report — used when the stream is re-placed onto another
  /// device, which then owns its whole history. Returns false if the id is
  /// not live on that device. Only valid after start() (checked).
  bool retire_task(int i, int task_id, bool forget_metrics = false);

  /// Jobs released but not yet completed/dropped on device `i` (drain
  /// probe for scale-down).
  int jobs_in_flight(int i) const {
    return devices_.at(i).scheduler->jobs_in_flight();
  }

  /// Device crash: kills every queued and dispatched job on device `i`
  /// instantly, with no collector close (faulted jobs stay open — their
  /// count is the return value). Unlike retire_task this does not touch
  /// placer accounting or stop releases; the fault engine owns both.
  int abort_in_flight(int i) {
    return devices_.at(i).scheduler->abort_in_flight();
  }

  /// Per-device metrics over [collector.warmup(), end] read from the
  /// constructor's collector after reduce(); utilization over the whole
  /// run [0, end]. A re-placed stream's whole history (which may span
  /// devices and shards) is attributed to its final home.
  metrics::DeviceReport device_report(int i, SimTime end) const;
  metrics::FleetReport fleet_report(SimTime end) const;

  std::int64_t releases_issued() const;
  /// Summed over SGPRS devices (0 for the naive fleet).
  std::int64_t stage_migrations() const;
  std::int64_t medium_promotions() const;

 private:
  /// What the cluster derives from one distinct spec, once.
  struct DeviceType {
    gpu::DeviceSpec spec;
    std::vector<int> context_sms;  // the pool's, in creation order
    PlacerDevice placer;
    int utilization_basis = 0;  // max(total SMs, summed context SMs)
  };
  /// Index of `spec`'s type, added on first sight.
  int type_of(const gpu::DeviceSpec& spec);
  Device make_device(int type, int index);
  /// The earliest instant an input can reach device `index`'s executor:
  /// its runner's next release, its scheduler's next timer, or the end of
  /// the shard's run_until — where the control plane acts. A function of
  /// the device and the epoch instants alone, so the same at any shard
  /// count.
  SimTime input_bound(int index) const;
  /// Shard calendar owning device `index`.
  sim::Engine& device_engine(int index) {
    return *engines_[shard_of(index, cfg_.shards)];
  }

  metrics::Collector& collector_;
  ClusterConfig cfg_;
  /// engines_[0] is the constructor's engine, the rest are owned_engines_.
  std::vector<sim::Engine*> engines_;
  std::vector<std::unique_ptr<sim::Engine>> owned_engines_;
  std::unique_ptr<common::ThreadPool> pool_;  // shards 1..N-1; null at 1
  std::deque<metrics::Collector> collectors_;  // one per device
  std::vector<DeviceType> types_;  // first-seen order
  /// memos_[s][type], null until a device of the type runs on shard s.
  /// Declared before devices_, so they outlive the executors.
  std::vector<std::vector<std::unique_ptr<gpu::DeviceClassMemo>>> memos_;
  std::deque<Device> devices_;  // stable addresses under add_device
  std::unique_ptr<Placer> placer_;
  std::vector<Rejected> rejected_;
  bool started_ = false;
  rt::RunnerConfig rcfg_;
};

}  // namespace sgprs::cluster
