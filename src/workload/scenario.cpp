#include "workload/scenario.hpp"

#include <cmath>
#include <memory>

#include "cluster/cluster.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "dnn/profiler.hpp"
#include "rt/runner.hpp"
#include "sim/engine.hpp"

namespace sgprs::workload {

/// Pool shape for one device. The naive baseline gets one stream per
/// context and no over-subscription (it is pure spatial partitioning).
gpu::ContextPoolConfig pool_config_for(const ScenarioConfig& cfg) {
  gpu::ContextPoolConfig pool_cfg;
  pool_cfg.num_contexts = cfg.num_contexts;
  if (cfg.scheduler == SchedulerKind::kSgprs) {
    pool_cfg.oversubscription = cfg.oversubscription;
    pool_cfg.explicit_sm_limits = cfg.context_sms;
    pool_cfg.high_streams_per_context = 2;
    pool_cfg.low_streams_per_context = 2;
  } else {
    pool_cfg.oversubscription = 1.0;
    pool_cfg.high_streams_per_context = 1;
    pool_cfg.low_streams_per_context = 0;
  }
  return pool_cfg;
}

namespace {

/// Offline phase: one shared network + WCET profile at every distinct SM
/// size, cloned per task with seeded phase jitter.
std::vector<rt::Task> build_task_set(const ScenarioConfig& cfg,
                                     const std::vector<int>& pool_sizes) {
  const auto network = std::make_shared<const dnn::Network>(
      cfg.network_builder ? cfg.network_builder() : dnn::resnet18());
  dnn::Profiler profiler(cfg.device, gpu::SpeedupModel::rtx2080ti(),
                         dnn::CostModel::calibrated());

  rt::TaskConfig tcfg;
  tcfg.fps = cfg.fps;
  tcfg.num_stages = cfg.num_stages;
  tcfg.priority_policy = cfg.priority_policy;

  common::Rng rng(cfg.seed);
  const rt::Task prototype =
      rt::build_task(0, network, tcfg, profiler, pool_sizes);

  std::vector<rt::Task> tasks;
  tasks.reserve(cfg.num_tasks);
  for (int i = 0; i < cfg.num_tasks; ++i) {
    rt::Task t = prototype;
    t.id = i;
    t.name = "task" + std::to_string(i);
    if (cfg.jitter_phases) {
      t.phase = SimTime::from_sec(rng.next_double() * t.period.to_sec());
    }
    tasks.push_back(std::move(t));
  }
  return tasks;
}

}  // namespace

void validate(const ScenarioConfig& cfg) {
  SGPRS_CHECK_MSG(cfg.num_tasks >= 1,
                  "num_tasks must be >= 1, got " << cfg.num_tasks);
  SGPRS_CHECK_MSG(cfg.fps > 0.0, "fps must be > 0, got " << cfg.fps);
  SGPRS_CHECK_MSG(cfg.num_stages >= 1,
                  "num_stages must be >= 1, got " << cfg.num_stages);
  // Explicit per-context SM limits replace num_contexts, but only on the
  // SGPRS path (the naive pool stays uniform and ignores them).
  const bool explicit_pool = !cfg.context_sms.empty() &&
                             cfg.scheduler == SchedulerKind::kSgprs;
  SGPRS_CHECK_MSG(cfg.num_contexts >= 1 || explicit_pool,
                  "num_contexts must be >= 1, got " << cfg.num_contexts);
  SGPRS_CHECK_MSG(cfg.oversubscription >= 1.0,
                  "oversubscription must be >= 1.0 (the paper's SGPRS_os), "
                  "got " << cfg.oversubscription);
  for (int sms : cfg.context_sms) {
    SGPRS_CHECK_MSG(sms >= 1, "context_sms entries must be >= 1, got " << sms);
  }
  SGPRS_CHECK_MSG(cfg.duration > SimTime::zero(), "duration must be > 0");
  SGPRS_CHECK_MSG(cfg.warmup < cfg.duration,
                  "warmup (" << cfg.warmup.to_sec()
                             << " s) must be below duration ("
                             << cfg.duration.to_sec() << " s)");
  SGPRS_CHECK_MSG(cfg.sgprs.max_in_flight_per_task >= 1,
                  "sgprs.max_in_flight_per_task must be >= 1, got "
                      << cfg.sgprs.max_in_flight_per_task);
  SGPRS_CHECK_MSG(cfg.num_devices >= 1 || !cfg.fleet.empty(),
                  "fleet must not be empty: num_devices must be >= 1, got "
                      << cfg.num_devices);
  SGPRS_CHECK_MSG(cfg.shards >= 1,
                  "shards must be >= 1, got " << cfg.shards);
  SGPRS_CHECK_MSG(cfg.admission_margin <= 1.0,
                  "admission_margin must be a fraction in (0, 1] (or <= 0 "
                  "to disable admission), got " << cfg.admission_margin);
  SGPRS_CHECK_MSG(cfg.occupancy_threshold > 0.0 &&
                      cfg.occupancy_threshold <= 1.0,
                  "occupancy_threshold must be a fraction in (0, 1], got "
                      << cfg.occupancy_threshold);
  SGPRS_CHECK_MSG(cfg.device_mem_mb >= 0.0,
                  "device_mem_mb must be >= 0 (0 keeps the device default), "
                  "got " << cfg.device_mem_mb);
}

gpu::DeviceSpec device_spec_for(const ScenarioConfig& cfg,
                                gpu::DeviceSpec spec) {
  if (cfg.device_mem_mb > 0.0) {
    spec.mem_bytes =
        static_cast<std::int64_t>(std::llround(cfg.device_mem_mb * 1048576.0));
  }
  return spec;
}

cluster::ClusterConfig cluster_config_for(const ScenarioConfig& cfg) {
  cluster::ClusterConfig ccfg;
  ccfg.devices = cfg.fleet.empty() ? std::vector<gpu::DeviceSpec>(
                                         cfg.num_devices, cfg.device)
                                   : cfg.fleet;
  for (auto& spec : ccfg.devices) spec = device_spec_for(cfg, spec);
  ccfg.placement = cfg.placement;
  ccfg.admission_margin = cfg.admission_margin;
  ccfg.occupancy_threshold = cfg.occupancy_threshold;
  ccfg.scheduler = cfg.scheduler;
  ccfg.pool = pool_config_for(cfg);
  ccfg.sgprs = cfg.sgprs;
  ccfg.naive = cfg.naive;
  ccfg.sharing = cfg.sharing;
  ccfg.shards = cfg.shards;
  return ccfg;
}

namespace {

/// One closed-world run, kept alive so the caller can map its state into
/// a result: tasks placed as one batch at t = 0, the cluster's shards run
/// to the horizon, then its per-device collectors fold into `collector`.
/// The fleet runtime's device loop with no control events.
struct ClosedWorldRun {
  ClosedWorldRun(const ScenarioConfig& cfg, const TaskSetBuilder& builder)
      : collector(cfg.warmup),
        fleet(engine, collector, cluster_config_for(cfg)) {
    const std::vector<int> pool_sizes = fleet.pool_sm_sizes();
    std::vector<rt::Task> tasks = builder ? builder(cfg, pool_sizes)
                                          : build_task_set(cfg, pool_sizes);
    SGPRS_CHECK_MSG(!tasks.empty(), "task-set builder produced no tasks");
    fleet.place(std::move(tasks));
    rt::RunnerConfig rcfg;
    rcfg.duration = cfg.duration;
    // Sporadic inter-arrival draws key off this seed too; periodic runs
    // never touch the runner rng, so this cannot perturb the paper path.
    rcfg.jitter_seed = cfg.seed;
    fleet.start(rcfg);
    fleet.run_until(cfg.duration);
    fleet.reduce();
  }

  sim::Engine engine;  // shard 0
  metrics::Collector collector;
  cluster::Cluster fleet;
};

}  // namespace

ScenarioResult run_scenario(const ScenarioConfig& cfg,
                            const TaskSetBuilder& task_builder) {
  validate(cfg);
  ScenarioConfig one = cfg;
  one.num_devices = 1;
  one.fleet.clear();
  one.admission_margin = 0.0;  // every task is placed
  const ClosedWorldRun run(one, task_builder);
  const cluster::Cluster::Device& dev = run.fleet.device(0);

  ScenarioResult result;
  result.aggregate = run.collector.aggregate(cfg.duration);
  for (const auto& t : dev.tasks) {
    result.per_task.push_back(run.collector.per_task(t.id, cfg.duration));
  }
  result.releases = run.fleet.releases_issued();
  result.stage_migrations = run.fleet.stage_migrations();
  result.medium_promotions = run.fleet.medium_promotions();
  result.sim_events = static_cast<double>(run.fleet.events_processed());
  result.gpu_busy_sm_seconds = dev.exec->busy_sm_seconds();
  return result;
}

ClusterScenarioResult run_cluster_scenario(const ScenarioConfig& cfg,
                                           const TaskSetBuilder& task_builder) {
  validate(cfg);
  const ClosedWorldRun run(cfg, task_builder);

  ClusterScenarioResult result;
  result.fleet = run.fleet.fleet_report(cfg.duration);
  for (const auto& t : run.fleet.rejected_tasks()) {
    result.rejected_task_ids.push_back(t.id);
  }
  result.releases = run.fleet.releases_issued();
  result.stage_migrations = run.fleet.stage_migrations();
  result.medium_promotions = run.fleet.medium_promotions();
  result.sim_events = static_cast<double>(run.fleet.events_processed());
  return result;
}

std::vector<ScenarioResult> sweep_num_tasks(ScenarioConfig cfg, int from,
                                            int to) {
  SGPRS_CHECK(from >= 1 && to >= from);
  std::vector<ScenarioResult> results;
  results.reserve(to - from + 1);
  for (int n = from; n <= to; ++n) {
    cfg.num_tasks = n;
    results.push_back(run_scenario(cfg));
  }
  return results;
}

int find_pivot(const std::vector<ScenarioResult>& sweep, int from,
               double miss_epsilon) {
  int pivot = from - 1;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    if (sweep[i].aggregate.dmr > miss_epsilon) break;
    pivot = from + static_cast<int>(i);
  }
  return pivot;
}

}  // namespace sgprs::workload
