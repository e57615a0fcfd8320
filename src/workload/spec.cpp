#include "workload/spec.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>

#include "cluster/cluster.hpp"
#include "cluster/placement.hpp"
#include "common/rng.hpp"
#include "dnn/builders.hpp"
#include "dnn/profiler.hpp"
#include "fleet/runtime.hpp"
#include "obs/instruments.hpp"
#include "trace/trace.hpp"
#include "workload/spec_util.hpp"
#include "workload/taskset.hpp"

namespace sgprs::workload {

namespace {

using common::JsonValue;
using namespace specdet;

void parse_pool(const JsonValue& v, ScenarioConfig& cfg,
                const std::string& path) {
  require_object(v, path);
  check_keys(v, {"contexts", "oversubscription", "context_sms"}, path);
  cfg.num_contexts = int_or(v, "contexts", cfg.num_contexts, path);
  cfg.oversubscription =
      num_or(v, "oversubscription", cfg.oversubscription, path);
  if (const JsonValue* sms = v.find("context_sms")) {
    const auto items = get_field("context_sms", path,
                                 [&] { return sms->items(); });
    for (const auto& item : items) {
      cfg.context_sms.push_back(get_field(
          "context_sms", path,
          [&] { return static_cast<int>(item.as_int()); }));
    }
  }
}

void parse_sim(const JsonValue& v, ScenarioConfig& cfg,
               const std::string& path) {
  require_object(v, path);
  check_keys(v, {"duration_s", "warmup_s", "seed", "jitter_phases", "shards"},
             path);
  cfg.duration = seconds_or(v, "duration_s", cfg.duration, path);
  cfg.warmup = seconds_or(v, "warmup_s", cfg.warmup, path);
  cfg.seed = seed_or(v, "seed", cfg.seed, path);
  cfg.jitter_phases = bool_or(v, "jitter_phases", cfg.jitter_phases, path);
  cfg.shards = int_or(v, "shards", cfg.shards, path);
}

void parse_sgprs(const JsonValue& v, ScenarioConfig& cfg,
                 const std::string& path) {
  require_object(v, path);
  check_keys(v,
             {"medium_boost", "abort_hopeless", "max_in_flight",
              "queue_order"},
             path);
  cfg.sgprs.medium_boost =
      bool_or(v, "medium_boost", cfg.sgprs.medium_boost, path);
  cfg.sgprs.abort_hopeless =
      bool_or(v, "abort_hopeless", cfg.sgprs.abort_hopeless, path);
  cfg.sgprs.max_in_flight_per_task =
      int_or(v, "max_in_flight", cfg.sgprs.max_in_flight_per_task, path);
  cfg.sgprs.queue_order = enum_or(v, "queue_order", rt::kQueueOrderNames,
                                  cfg.sgprs.queue_order, "order", path);
}

void parse_naive(const JsonValue& v, ScenarioConfig& cfg,
                 const std::string& path) {
  require_object(v, path);
  check_keys(v, {"max_in_flight", "host_sync_gap_ms"}, path);
  cfg.naive.max_in_flight_per_task =
      int_or(v, "max_in_flight", cfg.naive.max_in_flight_per_task, path);
  const double gap_ms =
      num_or(v, "host_sync_gap_ms", cfg.naive.host_sync_gap.to_ms(), path);
  check_times(path, {{"host_sync_gap_ms", gap_ms / 1000.0}});
  cfg.naive.host_sync_gap = common::SimTime::from_ms(gap_ms);
}

void parse_fleet(const JsonValue& v, ScenarioSpec& spec,
                 const std::string& path) {
  require_object(v, path);
  check_keys(v, {"devices", "placement", "admission_margin",
                 "occupancy_threshold", "device_mem_mb"},
             path);
  spec.fleet_mode = true;
  if (const JsonValue* devices = v.find("devices")) {
    if (devices->is_number()) {
      const int n = get_field("devices", path, [&] {
        return static_cast<int>(devices->as_int());
      });
      if (n < 1) bad(path + ".devices", "device count must be >= 1");
      spec.base.num_devices = n;
    } else if (devices->is_array()) {
      for (const auto& item : devices->items()) {
        const std::string name = get_field("devices", path,
                                           [&] { return item.as_string(); });
        const auto dev = gpu::device_by_name(name);
        if (!dev) {
          bad(path + ".devices", "unknown device \"" + name + "\" (want " +
                                     gpu::device_names() + ")");
        }
        spec.base.fleet.push_back(*dev);
      }
      if (spec.base.fleet.empty()) {
        bad(path + ".devices", "device list must not be empty");
      }
      spec.base.num_devices = static_cast<int>(spec.base.fleet.size());
    } else {
      bad(path + ".devices",
          std::string("expected a count or an array of device names, got ") +
              devices->type_name());
    }
  }
  spec.base.placement =
      enum_or(v, "placement", cluster::kPlacementPolicyNames,
              spec.base.placement, "policy", path);
  spec.base.admission_margin =
      num_or(v, "admission_margin", spec.base.admission_margin, path);
  spec.base.occupancy_threshold =
      num_or(v, "occupancy_threshold", spec.base.occupancy_threshold, path);
  spec.base.device_mem_mb =
      num_or(v, "device_mem_mb", spec.base.device_mem_mb, path);
}

GeneratorSpec parse_generator(const JsonValue& v, const std::string& path) {
  require_object(v, path);
  check_keys(v,
             {"count", "total_utilization", "stages", "min_fps", "max_fps",
              "networks", "seed"},
             path);
  GeneratorSpec g;
  g.count = int_or(v, "count", g.count, path);
  g.total_utilization =
      num_or(v, "total_utilization", g.total_utilization, path);
  g.num_stages = int_or(v, "stages", g.num_stages, path);
  g.min_fps = num_or(v, "min_fps", g.min_fps, path);
  g.max_fps = num_or(v, "max_fps", g.max_fps, path);
  if (const JsonValue* networks = v.find("networks")) {
    const auto items = get_field("networks", path,
                                 [&] { return networks->items(); });
    for (const auto& item : items) {
      g.networks.push_back(get_field("networks", path,
                                     [&] { return item.as_string(); }));
    }
  }
  g.seed = seed_or(v, "seed", g.seed, path);
  return g;
}

/// The base config's rules, each reported at its spec field.
/// `scale_device` is the device the autoscaler adds, if it adds any.
void validate_base(const ScenarioConfig& cfg,
                   const std::optional<gpu::DeviceSpec>& scale_device) {
  // Explicit per-context SM limits replace pool.contexts, but only on the
  // SGPRS path (the naive pool stays uniform and ignores them).
  const bool explicit_pool =
      !cfg.context_sms.empty() && cfg.scheduler == SchedulerKind::kSgprs;
  if (cfg.num_contexts < 1 && !explicit_pool) {
    bad("spec.pool.contexts", "must be >= 1");
  }
  // Each context needs at least one SM of every device it is carved from,
  // the autoscaler's included, and cannot hold more SMs than the smallest
  // of them has.
  int min_sms = cfg.device.total_sms;
  for (const auto& d : cfg.fleet) min_sms = std::min(min_sms, d.total_sms);
  if (scale_device) min_sms = std::min(min_sms, scale_device->total_sms);
  if (cfg.num_contexts > min_sms) {
    bad("spec.pool.contexts", "must be <= " + std::to_string(min_sms) +
                                  ", the device's SM count (each context "
                                  "needs at least one SM)");
  }
  if (!(cfg.oversubscription >= 1.0)) {
    bad("spec.pool.oversubscription", "must be >= 1.0 (the paper's SGPRS_os)");
  }
  for (std::size_t i = 0; i < cfg.context_sms.size(); ++i) {
    if (cfg.context_sms[i] < 1 || cfg.context_sms[i] > min_sms) {
      bad("spec.pool.context_sms[" + std::to_string(i) + "]",
          "must be in [1, " + std::to_string(min_sms) +
              "], the smallest device's SM count");
    }
  }
  if (cfg.duration <= common::SimTime::zero()) {
    bad("spec.sim.duration_s", "must be > 0");
  }
  if (cfg.warmup >= cfg.duration) {
    bad("spec.sim.warmup_s", "must be below sim.duration_s");
  }
  if (cfg.shards < 1 || cfg.shards > cluster::kMaxShards) {
    bad("spec.sim.shards", "must be in [1, " +
                               std::to_string(cluster::kMaxShards) +
                               "] (kMaxShards)");
  }
  if (cfg.sgprs.max_in_flight_per_task < 1) {
    bad("spec.sgprs.max_in_flight", "must be >= 1");
  }
  if (cfg.naive.max_in_flight_per_task < 1) {
    bad("spec.naive.max_in_flight", "must be >= 1");
  }
  if (cfg.naive.host_sync_gap < common::SimTime::zero()) {
    bad("spec.naive.host_sync_gap_ms", "must be >= 0");
  }
  if (cfg.num_devices < 1 && cfg.fleet.empty()) {
    bad("spec.fleet.devices", "device count must be >= 1");
  }
  if (cfg.num_devices > cluster::kMaxFleetDevices) {
    bad("spec.fleet.devices",
        "must be <= " + std::to_string(cluster::kMaxFleetDevices) +
            " (kMaxFleetDevices)");
  }
  if (!(cfg.admission_margin <= 1.0)) {
    bad("spec.fleet.admission_margin",
        "must be a fraction in (0, 1] (or <= 0 to disable admission)");
  }
  if (!(cfg.occupancy_threshold > 0.0 && cfg.occupancy_threshold <= 1.0)) {
    bad("spec.fleet.occupancy_threshold", "must be a fraction in (0, 1]");
  }
  if (!(cfg.device_mem_mb >= 0.0)) {
    bad("spec.fleet.device_mem_mb",
        "must be >= 0 (0 keeps the device default)");
  }
  if (!(cfg.device_mem_mb * 1048576.0 <=
        static_cast<double>(kMaxDeviceMemBytes))) {
    bad("spec.fleet.device_mem_mb",
        "must be finite and at most " +
            std::to_string(kMaxDeviceMemBytes >> 20) +
            " MiB (kMaxDeviceMemBytes)");
  }
}

void check_network_known(const std::string& network, const std::string& path) {
  if (!dnn::network_builder_by_name(network)) {
    bad(path, "unknown network \"" + network + "\" (want " +
                  dnn::network_names() + ")");
  }
}

}  // namespace

ScenarioSpec parse_scenario_spec(const common::JsonValue& root,
                                 const std::string& default_name,
                                 bool skip_experiment_section) {
  const std::string path = "spec";
  require_object(root, path);
  check_keys(root,
             {"name", "description", "scheduler", "device", "pool", "sim",
              "sgprs", "naive", "tasks", "generator", "fleet", "experiment",
              "timeline", "fleet_policy", "faults"},
             path);
  if (!skip_experiment_section && root.find("experiment")) {
    bad(path + ".experiment",
        "this is an experiment spec — run it with --experiment (or "
        "load_experiment_spec), not --scenario");
  }

  ScenarioSpec spec;
  spec.name = str_or(root, "name", default_name, path);
  spec.description = str_or(root, "description", "", path);

  spec.base.scheduler =
      enum_or(root, "scheduler", rt::kSchedulerKindNames, spec.base.scheduler,
              "scheduler", path);

  if (const JsonValue* device = root.find("device")) {
    const std::string name = get_field("device", path,
                                       [&] { return device->as_string(); });
    if (const auto dev = gpu::device_by_name(name)) {
      spec.base.device = *dev;
    } else {
      bad(path + ".device", "unknown device \"" + name + "\" (want " +
                                gpu::device_names() + ")");
    }
  }

  if (const JsonValue* pool = root.find("pool")) {
    parse_pool(*pool, spec.base, path + ".pool");
  }
  if (const JsonValue* sim = root.find("sim")) {
    parse_sim(*sim, spec.base, path + ".sim");
  }
  if (const JsonValue* sgprs = root.find("sgprs")) {
    parse_sgprs(*sgprs, spec.base, path + ".sgprs");
  }
  if (const JsonValue* naive = root.find("naive")) {
    parse_naive(*naive, spec.base, path + ".naive");
  }
  if (const JsonValue* fleet = root.find("fleet")) {
    parse_fleet(*fleet, spec, path + ".fleet");
  }

  if (const JsonValue* tasks = root.find("tasks")) {
    const auto& items = get_field("tasks", path,
                                  [&] { return tasks->items(); });
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::string p = path + ".tasks[" + std::to_string(i) + "]";
      TaskEntrySpec& e = spec.tasks.emplace_back();
      fleet::parse_stream(items[i], p, fleet::StreamRole::kTaskEntry, e);
      e.count = int_or(items[i], "count", e.count, p);
    }
  }
  if (const JsonValue* generator = root.find("generator")) {
    spec.generator = parse_generator(*generator, path + ".generator");
  }
  if (const JsonValue* timeline = root.find("timeline")) {
    spec.timeline = fleet::parse_timeline(*timeline, path + ".timeline");
  }
  if (const JsonValue* policy = root.find("fleet_policy")) {
    spec.fleet_policy =
        fleet::parse_fleet_policy(*policy, path + ".fleet_policy");
  }
  if (const JsonValue* faults = root.find("faults")) {
    spec.faults = fleet::parse_fault_spec(*faults, path + ".faults");
  }
  return spec;
}

ScenarioSpec load_scenario_spec(const std::string& path) {
  // File stem ("scenarios/foo.json" -> "foo") names anonymous specs.
  const std::string stem = std::filesystem::path(path).stem().string();
  const common::JsonValue root = common::parse_json_file(path);
  if (root.is_object() && root.find("sgprs_trace")) {
    throw SpecError(
        "spec: \"" + path + "\" is a trace data file, not a scenario — "
        "replay it with --trace, or reference it from a timeline "
        "{\"trace\": ...}");
  }
  ScenarioSpec spec = parse_scenario_spec(root, stem);
  resolve_spec_trace(spec, path);
  validate(spec);
  return spec;
}

void resolve_spec_trace(ScenarioSpec& spec, const std::string& spec_path) {
  if (!spec.timeline || spec.timeline->trace_path.empty() ||
      spec.timeline->trace) {
    return;
  }
  std::filesystem::path p(spec.timeline->trace_path);
  if (p.is_relative() && !spec_path.empty()) {
    p = std::filesystem::path(spec_path).parent_path() / p;
  }
  spec.timeline->trace =
      std::make_shared<const trace::Trace>(trace::load_trace(p.string()));
}

void validate(const ScenarioSpec& spec) {
  if (spec.generator && !spec.tasks.empty()) {
    throw SpecError("spec: \"tasks\" and \"generator\" are mutually "
                    "exclusive — pick one");
  }
  // A timeline with templates — or a trace, which carries its own template
  // set — can populate the run entirely through churn, so dynamic specs may
  // start with an empty world.
  const bool churn_only =
      spec.timeline && (!spec.timeline->templates.empty() ||
                        spec.timeline->trace != nullptr);
  if (!spec.generator && spec.tasks.empty() && !churn_only) {
    throw SpecError("spec: needs a \"tasks\" array, a \"generator\", or a "
                    "\"timeline\" with templates");
  }
  if (spec.timeline && !spec.timeline->trace_path.empty() &&
      !spec.timeline->trace) {
    throw SpecError("spec.timeline.trace",
                    "trace \"" + spec.timeline->trace_path +
                        "\" is not attached — load the spec through "
                        "load_scenario_spec, or call resolve_spec_trace");
  }

  std::int64_t initial_streams = 0;
  for (std::size_t i = 0; i < spec.tasks.size(); ++i) {
    const auto& e = spec.tasks[i];
    const std::string path = "spec.tasks[" + std::to_string(i) + "]";
    if (e.count < 1) bad(path + ".count", "must be >= 1");
    initial_streams += e.count;
    if (initial_streams > kMaxInitialStreams) {
      bad(path + ".count", "the spec's initial streams exceed " +
                               std::to_string(kMaxInitialStreams) +
                               " (kMaxInitialStreams)");
    }
    fleet::validate_stream(e, path, fleet::StreamRole::kTaskEntry);
  }
  // An unknown autoscaler device is validate_fleet_policy's error.
  std::optional<gpu::DeviceSpec> scale_device;
  const bool autoscaled =
      spec.fleet_policy &&
      spec.fleet_policy->autoscaler.kind != fleet::AutoscalePolicyKind::kNone;
  if (autoscaled) {
    const std::string& name = spec.fleet_policy->autoscaler.device;
    if (!name.empty()) scale_device = gpu::device_by_name(name);
  }
  validate_base(spec.base, scale_device);

  if (spec.timeline) {
    fleet::validate_timeline(*spec.timeline, "spec.timeline",
                             spec.base.duration);
  }
  if (spec.fleet_policy) {
    fleet::validate_fleet_policy(*spec.fleet_policy, "spec.fleet_policy",
                                 spec.base.duration);
  }
  if (spec.faults) {
    std::optional<int> num_devices;  // an autoscaler appends devices
    if (!autoscaled) {
      num_devices = spec.base.fleet.empty()
                        ? spec.base.num_devices
                        : static_cast<int>(spec.base.fleet.size());
    }
    fleet::validate_fault_spec(*spec.faults, "spec.faults", num_devices);
  }

  if (spec.generator) {
    const auto& g = *spec.generator;
    const std::string path = "spec.generator";
    if (g.count < 1) bad(path + ".count", "must be >= 1");
    if (g.count > kMaxInitialStreams) {
      bad(path + ".count", "must be <= " +
                               std::to_string(kMaxInitialStreams) +
                               " (kMaxInitialStreams)");
    }
    if (!(g.total_utilization > 0.0 && std::isfinite(g.total_utilization))) {
      bad(path + ".total_utilization", "must be finite and > 0");
    }
    if (g.num_stages < 1) bad(path + ".stages", "must be >= 1");
    // Drawn rates are clamped to [min_fps, max_fps], so the period rule
    // at both bounds covers every generated task.
    check_period(g.min_fps, path + ".min_fps");
    check_period(g.max_fps, path + ".max_fps");
    if (g.max_fps < g.min_fps) bad(path, "needs 0 < min_fps <= max_fps");
    for (const auto& n : g.networks) {
      check_network_known(n, path + ".networks");
    }
  }
}

common::SimTime spec_seconds(double seconds, const std::string& path) {
  return to_sim_time(seconds, path);
}

ScenarioConfig lower(const ScenarioSpec& spec) { return spec.base; }

namespace {

/// The general task-building path behind task_builder_for / run_spec.
/// `generator_seed` substitutes for spec.generator->seed so replication
/// runs can re-seed without cloning the spec.
std::vector<rt::Task> build_spec_tasks(const ScenarioSpec& spec,
                                       std::uint64_t generator_seed,
                                       const ScenarioConfig& cfg,
                                       const std::vector<int>& pool_sizes) {
  if (spec.generator) {
    const auto& g = *spec.generator;
    RandomTaskSetConfig rcfg;
    rcfg.count = g.count;
    rcfg.total_utilization = g.total_utilization;
    rcfg.num_stages = g.num_stages;
    rcfg.min_fps = g.min_fps;
    rcfg.max_fps = g.max_fps;
    rcfg.seed = generator_seed;
    for (const auto& name : g.networks) {
      rcfg.network_choices.push_back(dnn::network_builder_by_name(name));
    }
    const dnn::Profiler profiler(cfg.device, gpu::SpeedupModel::rtx2080ti(),
                                 dnn::CostModel::calibrated());
    return build_random_taskset(rcfg, profiler, pool_sizes);
  }

  // Explicit entries: one prototype per entry, cloned per replica, with
  // phases drawn from one seeded rng in task order.
  common::Rng rng(cfg.seed);
  std::vector<rt::Task> tasks;
  for (const auto& e : spec.tasks) {
    const rt::Task proto =
        fleet::build_stream_task(e, cfg.device, pool_sizes);
    for (int i = 0; i < e.count; ++i) {
      rt::Task& t = tasks.emplace_back(proto);
      t.id = static_cast<int>(tasks.size()) - 1;
      t.name = e.name + std::to_string(t.id);
      if (e.phase_ms < 0.0 && cfg.jitter_phases) {
        t.phase =
            common::SimTime::from_sec(rng.next_double() * t.period.to_sec());
      }
    }
  }
  return tasks;
}

}  // namespace

RunSeeds spec_seeds(const ScenarioSpec& spec) {
  RunSeeds seeds;
  seeds.sim = spec.base.seed;
  seeds.generator = spec.generator ? spec.generator->seed : 0;
  return seeds;
}

SpecResult run_spec(const ScenarioSpec& spec, trace::TraceRecorder* capture) {
  validate(spec);
  return run_spec(spec, spec_seeds(spec), capture);
}

SpecResult run_spec(const ScenarioSpec& spec, const RunSeeds& seeds,
                    trace::TraceRecorder* capture,
                    const obs::Instruments& instruments) {
  return fleet::run_fleet_scenario(spec, seeds, capture, instruments);
}

TaskSetBuilder task_builder_for(const ScenarioSpec& spec) {
  return task_builder_for(spec, spec_seeds(spec).generator);
}

TaskSetBuilder task_builder_for(const ScenarioSpec& spec,
                                std::uint64_t generator_seed) {
  return [spec, generator_seed](const ScenarioConfig& cfg,
                                const std::vector<int>& pool_sizes) {
    return build_spec_tasks(spec, generator_seed, cfg, pool_sizes);
  };
}

std::vector<SpecResult> sweep_num_tasks(ScenarioSpec spec, int from,
                                        int to) {
  if (spec.tasks.size() != 1 || spec.generator) {
    bad("spec.tasks", "a task-count sweep needs exactly one task entry");
  }
  if (from < 1 || to < from) {
    bad("spec.tasks[0].count", "sweep range must satisfy 1 <= from <= to, "
                               "got " + std::to_string(from) + ":" +
                                   std::to_string(to));
  }
  int& count = spec.tasks.front().count;
  count = to;
  validate(spec);  // the largest count bounds every run
  const RunSeeds seeds = spec_seeds(spec);
  std::vector<SpecResult> results;
  results.reserve(to - from + 1);
  for (count = from; count <= to; ++count) {
    results.push_back(run_spec(spec, seeds));
  }
  return results;
}

int find_pivot(const std::vector<SpecResult>& sweep, int from,
               double miss_epsilon) {
  int pivot = from - 1;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    if (sweep[i].dmr() > miss_epsilon) break;
    pivot = from + static_cast<int>(i);
  }
  return pivot;
}

const TaskEntrySpec* task_entry_for(const ScenarioSpec& spec,
                                    int task_index) {
  int next = 0;
  for (const auto& e : spec.tasks) {
    if (task_index < next + e.count) return &e;
    next += e.count;
  }
  return nullptr;  // generator-built, or out of range
}

}  // namespace sgprs::workload
