// Declarative JSON scenario specs (docs/scenario-format.md is the full
// schema reference).
//
// A spec is the one description of a run: scheduler, pool shape, sim
// window, a *heterogeneous* task list (explicit entries or a UUniFast
// generator) and optional fleet, timeline, policy and fault sections. The
// CLI, benches, examples and tests all build one — from a .json file or in
// C++ — and run it through run_spec. Every spec builds its tasks through
// fleet::build_stream_task, one prototype per entry cloned per replica
// (the paper's N identical streams are one entry with count N).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "fleet/faults.hpp"
#include "fleet/policy.hpp"
#include "fleet/report.hpp"
#include "fleet/timeline.hpp"
#include "obs/instruments.hpp"
#include "workload/scenario.hpp"
#include "workload/spec_error.hpp"

namespace sgprs::trace {
class TraceRecorder;
}  // namespace sgprs::trace

namespace sgprs::workload {

/// One task entry: `count` replicas of a stream shape (fleet::StreamTemplate
/// holds the fields; docs/scenario-format.md lists them). An entry's
/// defaults differ from a template's: name "task", tier 0 (protected from
/// shedding), and a negative phase_ms, meaning a seeded random phase.
struct TaskEntrySpec : fleet::StreamTemplate {
  TaskEntrySpec() {
    name = "task";
    phase_ms = -1.0;
    tier = 0;
  }
  int count = 1;
};

/// Upper bound on a spec's initial stream count (task-entry replicas or
/// generator tasks). The largest curated spec, diurnal_wave_10k, starts
/// 10,000 streams; the bound leaves 10x headroom and turns a mistyped count
/// into a field-path error instead of an allocation failure.
inline constexpr std::int64_t kMaxInitialStreams = 100000;

/// Upper bound on `fleet.device_mem_mb`, in bytes: 1 PiB, far past any
/// GPU, and small enough that byte counts and budgets built from it stay
/// well inside int64.
inline constexpr std::int64_t kMaxDeviceMemBytes = std::int64_t{1} << 50;

/// UUniFast task-set generator (workload/taskset.hpp), for capacity
/// studies: `count` tasks whose utilizations sum to `total_utilization`.
struct GeneratorSpec {
  int count = 8;
  double total_utilization = 2.0;
  int num_stages = 6;
  double min_fps = 5.0;
  double max_fps = 120.0;
  /// Network names drawn uniformly; empty = the taskset default mix.
  std::vector<std::string> networks;
  std::uint64_t seed = 7;
};

struct ScenarioSpec {
  std::string name;         // defaults to the file stem
  std::string description;  // free text, echoed in reports
  /// Scheduler/pool/device/fleet/sim knobs, lowered 1:1 from the JSON.
  ScenarioConfig base;
  /// Explicit task entries, in file order. Mutually exclusive with
  /// `generator`.
  std::vector<TaskEntrySpec> tasks;
  std::optional<GeneratorSpec> generator;
  /// True when the spec has a "fleet" section: the run keeps placement and
  /// admission control even with one device.
  bool fleet_mode = false;
  /// Open-world sections (docs/online-fleet.md): a churn timeline and/or a
  /// fleet control policy. Either makes the spec dynamic; without them
  /// the fleet runtime runs it with an empty timeline and the inert
  /// default policy.
  std::optional<fleet::TimelineSpec> timeline;
  std::optional<fleet::FleetPolicySpec> fleet_policy;
  /// Fault injection (docs/faults.md): scripted crashes, a stochastic
  /// MTBF/MTTR process and the failover policy. Also makes the spec
  /// dynamic.
  std::optional<fleet::FaultSpec> faults;

  bool dynamic() const {
    return timeline.has_value() || fleet_policy.has_value() ||
           faults.has_value();
  }
};

/// Parses a spec from a JSON document. Unknown keys are errors (typos must
/// not silently become defaults). `default_name` names the spec when the
/// document has no "name". A top-level "experiment" section is rejected with
/// a pointed error unless `skip_experiment_section` — the experiment loader
/// (workload/experiment.hpp) owns that key and parses the rest of the
/// document through here. Throws SpecError / common::JsonError.
ScenarioSpec parse_scenario_spec(const common::JsonValue& root,
                                 const std::string& default_name,
                                 bool skip_experiment_section = false);

/// Reads, parses and validates a .json spec file. A trace-driven timeline
/// (`"timeline": {"trace": "..."}`) has its trace file loaded here too,
/// resolved relative to the spec's directory. Passing a trace *data* file
/// (one written by --record-trace / trace_scale) is rejected with a
/// pointed error — those are replayed with --trace, not --scenario.
ScenarioSpec load_scenario_spec(const std::string& path);

/// Loads and attaches the trace a trace-driven timeline names:
/// timeline->trace_path is resolved against `spec_path`'s directory (used
/// verbatim when absolute or `spec_path` is empty), then trace::load_trace
/// validates it. No-op when the spec has no trace path or the trace is
/// already attached (specs built in memory set timeline->trace directly).
void resolve_spec_trace(ScenarioSpec& spec, const std::string& spec_path);

/// Semantic validation beyond parsing: entry counts, stream shapes,
/// initial stream total, generator bounds, and every base-config rule
/// (pool shape, sim window, in-flight caps, fleet size, admission and
/// occupancy fractions, device memory, shards). Throws SpecError with the
/// field path.
void validate(const ScenarioSpec& spec);

/// `seconds` as a SimTime, or SpecError at `path` unless finite and within
/// SimTime's range: the check behind sim.duration_s and every other spec
/// time field, for values that arrive as CLI flags.
common::SimTime spec_seconds(double seconds, const std::string& path);

/// The ScenarioConfig a run of this spec uses: its base config (the task
/// set comes from task_builder_for).
ScenarioConfig lower(const ScenarioSpec& spec);

/// The spec's task-set builder (explicit entries or the generator);
/// exposed for tests and custom harnesses. The returned builder owns a
/// copy of the spec, so it outlives the argument.
TaskSetBuilder task_builder_for(const ScenarioSpec& spec);

/// Same, with the generator seed overridden (replication runs and the
/// fleet runtime, which derives seeds without cloning the spec).
TaskSetBuilder task_builder_for(const ScenarioSpec& spec,
                                std::uint64_t generator_seed);

/// The task entry that produced initial task index `i` (entry replicas
/// expand in file order with sequential ids), or nullptr for
/// generator-built tasks. The fleet runtime reads the entry's tier and
/// name (churn retire targets match entry names exactly).
const TaskEntrySpec* task_entry_for(const ScenarioSpec& spec,
                                    int task_index);

/// Result of running one spec: exactly one of the three result shapes is
/// valid (single device, closed-world fleet, or dynamic). All three come
/// from the fleet runtime.
struct SpecResult {
  std::string name;
  bool fleet = false;    // the spec has a fleet section
  bool dynamic = false;  // spec.dynamic() (wins over `fleet`)
  ScenarioResult single;           // valid when !fleet && !dynamic
  ClusterScenarioResult cluster;   // valid when fleet
  fleet::FleetRunResult dyn;       // valid when dynamic

  const metrics::Snapshot& aggregate() const {
    if (dynamic) return dyn.fleet.fleet;
    return fleet ? cluster.fleet.fleet : single.aggregate;
  }
  double fps() const { return aggregate().fps; }
  double dmr() const { return aggregate().dmr; }
  std::int64_t releases() const {
    if (dynamic) return dyn.releases;
    return fleet ? cluster.releases : single.releases;
  }
  std::int64_t migrations() const {
    if (dynamic) return dyn.stage_migrations;
    return fleet ? cluster.stage_migrations : single.stage_migrations;
  }
  std::int64_t medium_promotions() const {
    if (dynamic) return dyn.medium_promotions;
    return fleet ? cluster.medium_promotions : single.medium_promotions;
  }
};

/// Per-run seed overrides, replacing spec.base.seed and (when a generator
/// section exists) spec.generator->seed without touching the spec itself.
struct RunSeeds {
  std::uint64_t sim = 0;
  std::uint64_t generator = 0;
};

/// The spec's own seeds: sim.seed, and the generator section's seed (0
/// without one). Every run that is not a replication starts from these.
RunSeeds spec_seeds(const ScenarioSpec& spec);

/// Validates and runs one spec end to end with its own seeds, in the fleet
/// runtime (fleet::run_fleet_scenario). A closed-world spec without a
/// fleet section runs on one device (base.device) with admission off, so
/// every task is placed; a fleet section adds placement and admission
/// control; timeline, fleet_policy or faults sections add the control
/// loops.
///
/// When `capture` is non-null the run feeds it the admit/retire stream
/// (--record-trace). Dynamic specs record their churn exactly (replaying
/// the trace against the same base spec is byte-identical); closed-world
/// specs record their initial task set as t=0 admissions, turning any
/// static scenario into a replayable open-world workload (approximate: the
/// closed-world report format differs).
SpecResult run_spec(const ScenarioSpec& spec,
                    trace::TraceRecorder* capture = nullptr);

/// Runs one *already validated* spec with the given seeds. This is the
/// Monte-Carlo hot path: the experiment engine validates every grid cell
/// once up front, then fires (cells x replications) jobs through here
/// against a shared immutable per-cell spec — no ScenarioSpec copy and no
/// re-validation per job. Seeds are the only thing that varies between
/// replications of a cell.
///
/// `capture` is as above. `instruments` (--trace-spans / --profile,
/// docs/observability.md) attach to every spec, static or dynamic: spans
/// record the run's jobs and streams, the profiler times the runtime's
/// phases. Neither instrument perturbs the run: results are bit-identical
/// with and without them.
SpecResult run_spec(const ScenarioSpec& spec, const RunSeeds& seeds,
                    trace::TraceRecorder* capture = nullptr,
                    const obs::Instruments& instruments = {});

/// Runs a one-entry spec at every replica count in [from, to] (the x-axis
/// of Figs. 3 and 4), each with the spec's own seeds. Results are indexed
/// by (n - from). Throws SpecError unless the spec has exactly one task
/// entry and 1 <= from <= to, or when the spec is invalid at count `to`.
std::vector<SpecResult> sweep_num_tasks(ScenarioSpec spec, int from, int to);

/// Pivot point (paper Section V): the largest task count that the
/// scheduler handles without deadline misses — i.e. the last N before the
/// first result with dmr > miss_epsilon. Returns `from - 1` if even the
/// smallest count misses.
int find_pivot(const std::vector<SpecResult>& sweep, int from,
               double miss_epsilon = 1e-9);

}  // namespace sgprs::workload
