// Parallel Monte-Carlo experiment engine (docs/experiments.md is the full
// format and math reference).
//
// An ExperimentSpec is a base scenario spec × a parameter grid × seed
// replications. Expansion produces one independent job per (grid cell,
// replication); jobs run on a common::ThreadPool and per-cell metrics are
// reduced to mean ± 95% CI (Student t, common::RunningStats).
//
// Determinism contract (pinned by tests/workload/experiment_test.cpp and
// the determinism suite):
//  * every job's RNG seed derives from (base_seed, cell index, replication
//    index) — never from wall clock or thread identity;
//  * futures are collected in job-submission order and reduced serially,
//    so reports are byte-identical for --jobs 1 and --jobs N.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "rt/scheduler_kind.hpp"
#include "workload/spec.hpp"

namespace sgprs::workload {

/// One sweep axis of the parameter grid. Axes are typed by name — an
/// unknown axis name is a spec error, exactly like an unknown key.
enum class GridAxisKind {
  kScheduler,        // "scheduler": scheduler kind names
  kFpsScale,         // "fps_scale": multiplies every task entry's rate
  kUtilization,      // "utilization": generator total_utilization override
  kDevices,          // "devices": fleet size (forces the cluster path)
  kAdmissionMargin,  // "admission_margin": fleet admission budget
};

struct GridAxisSpec {
  GridAxisKind kind;
  std::string name;  // the JSON key, echoed in reports
  /// Exactly one of the two value vectors is populated (schedulers for
  /// kScheduler, numeric for everything else).
  std::vector<double> numeric;
  std::vector<rt::SchedulerKind> schedulers;

  std::size_t size() const {
    return kind == GridAxisKind::kScheduler ? schedulers.size()
                                            : numeric.size();
  }
  /// Human/report label of value `i` ("sgprs", "1.5", "0.85", ...).
  std::string value_label(std::size_t i) const;
};

/// Upper bound on an experiment's runs, grid cells x replications. Each run
/// is a simulation plus an entry in the run plan and the outcome list; the
/// curated experiments run 64 and 48. Like kMaxInitialStreams, the bound
/// turns a mistyped count into a field-path error instead of an allocation
/// failure or days of wall clock.
inline constexpr std::size_t kMaxExperimentRuns = 100000;

struct ExperimentSpec {
  std::string name;         // defaults to the file stem
  std::string description;  // free text, echoed in reports
  ScenarioSpec base;        // the scenario every cell perturbs
  int replications = 8;
  /// Root of every derived per-job seed. The base scenario's own sim /
  /// generator seeds are overridden per job.
  std::uint64_t base_seed = 42;
  /// Grid axes in file order; empty = a single cell (pure seed sweep).
  std::vector<GridAxisSpec> axes;
};

/// Parses the document: the top-level "experiment" section plus a full
/// scenario spec in the remaining keys. Throws SpecError with field paths
/// ("spec.experiment.grid.fps_scale[1]: must be > 0").
ExperimentSpec parse_experiment_spec(const common::JsonValue& root,
                                     const std::string& default_name);

/// Reads, parses and validates a .json experiment spec file.
ExperimentSpec load_experiment_spec(const std::string& path);

/// Semantic validation: replication count, axis value ranges, axis/spec
/// compatibility (utilization needs a generator, fps_scale explicit tasks),
/// and that every grid cell lowers onto a valid scenario.
void validate(const ExperimentSpec& spec);

/// Number of grid cells (product of axis sizes; 1 when there are no axes).
std::size_t cell_count(const ExperimentSpec& spec);

/// Per-axis value indices of cell `cell` (row-major: the last axis varies
/// fastest, matching nested loops in declaration order).
std::vector<std::size_t> cell_coords(const ExperimentSpec& spec,
                                     std::size_t cell);

/// (axis name, value label) pairs of cell `cell`, in axis order.
std::vector<std::pair<std::string, std::string>> cell_labels(
    const ExperimentSpec& spec, std::size_t cell);

/// The concrete scenario run for (cell, replication): base with the cell's
/// axis values applied and seeds derived via experiment_seed(). Pure —
/// never consults global state, so job expansion is reproducible.
ScenarioSpec scenario_for(const ExperimentSpec& spec, std::size_t cell,
                          int replication);

/// Deterministic per-job seed stream: splitmix64-style avalanche over
/// (base_seed, cell, replication, stream). `stream` separates independent
/// consumers within one job (0 = sim phase/arrival jitter, 1 = task-set
/// generator) so overriding one never shifts the other.
std::uint64_t experiment_seed(std::uint64_t base_seed, std::size_t cell,
                              int replication, std::uint64_t stream);

/// Aggregated replications of one grid cell. Failed replications are
/// counted and excluded from the stats; the first error is kept verbatim.
struct CellResult {
  std::size_t index = 0;
  std::vector<std::pair<std::string, std::string>> coords;
  int runs = 0;      // replications that completed
  int failures = 0;  // replications that threw
  std::string first_error;

  common::RunningStats dmr;
  common::RunningStats fps;
  common::RunningStats fps_on_time;
  common::RunningStats p50_latency_ms;
  common::RunningStats p99_latency_ms;
  /// Streams/tasks rejected with memory as the sole blocker (0 for
  /// single-device runs, which have no placer).
  common::RunningStats oom_rejected;
  /// Fault/failover metrics (0 for runs without a "faults" section —
  /// closed-world and single-device runs never crash).
  common::RunningStats failovers;
  common::RunningStats streams_lost;
  common::RunningStats unavailability_s;

  /// "scheduler=sgprs utilization=2.5"; "all" when the grid has no axes.
  std::string label() const;
};

struct ExperimentResult {
  std::string name;
  std::string description;
  int replications = 0;
  std::uint64_t base_seed = 0;
  std::vector<CellResult> cells;
  int total_runs = 0;
  int total_failures = 0;
  /// Wall-clock of the run. Deliberately absent from every report writer —
  /// reports must be byte-identical across --jobs values.
  double wall_seconds = 0.0;
};

/// Expands the grid × replications into independent jobs and runs them on
/// min(`jobs`, runs) workers (<= 1 runs inline on the calling thread — no
/// pool, same results). Validates first; throws SpecError on a bad spec.
/// Individual job failures do not abort the experiment.
ExperimentResult run_experiment(const ExperimentSpec& spec, int jobs);

/// Human-readable per-cell CI table (one row per grid cell).
void print_experiment(const ExperimentResult& r, std::ostream& out);

/// Machine-readable reports: one row/record per cell with mean, 95% CI
/// half-width and min/max for each headline metric.
void write_experiment_csv(const ExperimentResult& r, std::ostream& out);
void write_experiment_json(const ExperimentResult& r, std::ostream& out);

}  // namespace sgprs::workload
