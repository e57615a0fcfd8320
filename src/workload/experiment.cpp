#include "workload/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <limits>
#include <sstream>

#include "common/rng.hpp"

#include "common/csv.hpp"
#include "common/json_writer.hpp"
#include "common/thread_pool.hpp"
#include "metrics/report.hpp"
#include "workload/spec_util.hpp"

namespace sgprs::workload {

namespace {

using common::JsonValue;
using namespace specdet;

/// Default-stream double formatting ("2", "1.5", "0.85"): stable across
/// platforms for the magnitudes grids use, and short enough for labels.
std::string label_of(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// "scheduler=sgprs utilization=2.5" — the one cell-naming format, shared
/// by validation errors and report rows so they always match.
std::string join_labels(
    const std::vector<std::pair<std::string, std::string>>& coords) {
  std::string out;
  for (const auto& [k, v] : coords) {
    if (!out.empty()) out += " ";
    out += k + "=" + v;
  }
  return out;
}

GridAxisSpec parse_axis(const std::string& name, const JsonValue& v,
                        const std::string& path) {
  GridAxisSpec axis;
  axis.name = name;
  if (name == "scheduler") {
    axis.kind = GridAxisKind::kScheduler;
  } else if (name == "fps_scale") {
    axis.kind = GridAxisKind::kFpsScale;
  } else if (name == "utilization") {
    axis.kind = GridAxisKind::kUtilization;
  } else if (name == "devices") {
    axis.kind = GridAxisKind::kDevices;
  } else if (name == "admission_margin") {
    axis.kind = GridAxisKind::kAdmissionMargin;
  } else {
    bad(path,
        "unknown grid axis (allowed: scheduler, fps_scale, utilization, "
        "devices, admission_margin)");
  }

  if (!v.is_array()) {
    bad(path, std::string("expected an array of values, got ") +
                  v.type_name());
  }
  if (v.items().empty()) bad(path, "axis needs at least one value");

  for (std::size_t i = 0; i < v.items().size(); ++i) {
    const JsonValue& item = v.items()[i];
    const std::string ipath = path + "[" + std::to_string(i) + "]";
    try {
      if (axis.kind == GridAxisKind::kScheduler) {
        const auto kind = rt::parse_scheduler_kind(item.as_string());
        if (!kind) {
          bad(ipath, "unknown scheduler \"" + item.as_string() +
                         "\" (want " + rt::scheduler_kind_names() + ")");
        }
        axis.schedulers.push_back(*kind);
      } else if (axis.kind == GridAxisKind::kDevices) {
        const std::int64_t n = item.as_int();
        // Range-check here (like specdet::int_or): the value is cast to
        // int when the cell is lowered, and an overflow there would be UB.
        if (n < 1 || n > std::numeric_limits<int>::max()) {
          bad(ipath, "device count out of range");
        }
        axis.numeric.push_back(static_cast<double>(n));
      } else {
        axis.numeric.push_back(item.as_number());
      }
    } catch (const common::JsonError& e) {
      throw SpecError(ipath, e.what());
    }
  }
  return axis;
}

}  // namespace

std::string GridAxisSpec::value_label(std::size_t i) const {
  if (kind == GridAxisKind::kScheduler) {
    return rt::to_string(schedulers[i]);
  }
  return label_of(numeric[i]);
}

ExperimentSpec parse_experiment_spec(const common::JsonValue& root,
                                     const std::string& default_name) {
  const std::string path = "spec";
  require_object(root, path);
  const JsonValue* exp = root.find("experiment");
  if (!exp) {
    bad(path, "not an experiment spec: missing the \"experiment\" section");
  }

  ExperimentSpec spec;
  spec.base = parse_scenario_spec(root, default_name,
                                  /*skip_experiment_section=*/true);
  spec.name = spec.base.name;
  spec.description = spec.base.description;

  const std::string epath = path + ".experiment";
  require_object(*exp, epath);
  check_keys(*exp, {"replications", "base_seed", "grid"}, epath);
  spec.replications = int_or(*exp, "replications", spec.replications, epath);
  spec.base_seed = seed_or(*exp, "base_seed", spec.base_seed, epath);

  if (const JsonValue* grid = exp->find("grid")) {
    const std::string gpath = epath + ".grid";
    require_object(*grid, gpath);
    for (const auto& [key, value] : grid->members()) {
      for (const auto& existing : spec.axes) {
        if (existing.name == key) {
          bad(gpath + "." + key, "duplicate grid axis");
        }
      }
      spec.axes.push_back(parse_axis(key, value, gpath + "." + key));
    }
  }
  return spec;
}

ExperimentSpec load_experiment_spec(const std::string& path) {
  const std::string stem = std::filesystem::path(path).stem().string();
  ExperimentSpec spec =
      parse_experiment_spec(common::parse_json_file(path), stem);
  // A trace-driven base timeline loads its trace once here; every grid
  // cell / replication then shares the attached immutable trace.
  resolve_spec_trace(spec.base, path);
  validate(spec);
  return spec;
}

void validate(const ExperimentSpec& spec) {
  const std::string epath = "spec.experiment";
  if (spec.replications < 1) bad(epath + ".replications", "must be >= 1");

  for (const auto& axis : spec.axes) {
    const std::string apath = epath + ".grid." + axis.name;
    switch (axis.kind) {
      case GridAxisKind::kScheduler:
        break;  // parse already rejected unknown names
      case GridAxisKind::kFpsScale:
        if (spec.base.generator) {
          bad(apath,
              "fps_scale sweeps explicit task entries; this spec uses a "
              "generator — sweep utilization instead");
        }
        for (std::size_t i = 0; i < axis.numeric.size(); ++i) {
          if (axis.numeric[i] <= 0.0) {
            bad(apath + "[" + std::to_string(i) + "]", "must be > 0");
          }
        }
        break;
      case GridAxisKind::kUtilization:
        if (!spec.base.generator) {
          bad(apath,
              "utilization requires a \"generator\" section (it overrides "
              "generator.total_utilization)");
        }
        for (std::size_t i = 0; i < axis.numeric.size(); ++i) {
          if (axis.numeric[i] <= 0.0) {
            bad(apath + "[" + std::to_string(i) + "]", "must be > 0");
          }
        }
        break;
      case GridAxisKind::kDevices:
        if (!spec.base.base.fleet.empty()) {
          bad(apath,
              "cannot sweep a device count over an explicit heterogeneous "
              "device list (fleet.devices)");
        }
        for (std::size_t i = 0; i < axis.numeric.size(); ++i) {
          if (axis.numeric[i] < 1.0) {
            bad(apath + "[" + std::to_string(i) + "]", "must be >= 1");
          }
        }
        break;
      case GridAxisKind::kAdmissionMargin:
        for (std::size_t i = 0; i < axis.numeric.size(); ++i) {
          if (axis.numeric[i] > 1.0) {
            bad(apath + "[" + std::to_string(i) + "]",
                "must be a fraction in (0, 1] (or <= 0 to disable "
                "admission)");
          }
        }
        break;
    }
  }

  // Bound the run count before anything is sized by it, multiplying so
  // the product cannot overflow.
  std::size_t runs = static_cast<std::size_t>(spec.replications);
  for (const auto& axis : spec.axes) {
    if (axis.size() > kMaxExperimentRuns / runs) {
      runs = kMaxExperimentRuns + 1;
      break;
    }
    runs *= axis.size();
  }
  if (runs > kMaxExperimentRuns) {
    bad(epath + ".replications",
        "grid cells x replications must be <= " +
            std::to_string(kMaxExperimentRuns) + " (kMaxExperimentRuns)");
  }

  // Every cell must lower onto a valid scenario — surface bad combinations
  // (e.g. an admission margin on a spec the base validation rejects) before
  // any simulation runs, naming the cell.
  const std::size_t cells = cell_count(spec);
  for (std::size_t c = 0; c < cells; ++c) {
    try {
      workload::validate(scenario_for(spec, c, 0));
    } catch (const SpecError& e) {
      // Keep the structured field path (suite reports consume it); the
      // message gains the cell coordinates so the failing grid corner is
      // findable. The inner what() already names the field, so the path
      // prefix repeating it is deliberate redundancy, not a bug.
      throw SpecError(e.path().empty() ? epath : e.path(),
                      "cell {" + join_labels(cell_labels(spec, c)) + "}: " +
                          e.what());
    }
  }
}

std::size_t cell_count(const ExperimentSpec& spec) {
  std::size_t n = 1;
  for (const auto& axis : spec.axes) n *= axis.size();
  return n;
}

std::vector<std::size_t> cell_coords(const ExperimentSpec& spec,
                                     std::size_t cell) {
  std::vector<std::size_t> coords(spec.axes.size(), 0);
  std::size_t rem = cell;
  for (std::size_t i = spec.axes.size(); i-- > 0;) {
    coords[i] = rem % spec.axes[i].size();
    rem /= spec.axes[i].size();
  }
  SGPRS_CHECK_MSG(rem == 0, "cell index " << cell << " out of range");
  return coords;
}

std::vector<std::pair<std::string, std::string>> cell_labels(
    const ExperimentSpec& spec, std::size_t cell) {
  const auto coords = cell_coords(spec, cell);
  std::vector<std::pair<std::string, std::string>> labels;
  labels.reserve(spec.axes.size());
  for (std::size_t i = 0; i < spec.axes.size(); ++i) {
    labels.emplace_back(spec.axes[i].name,
                        spec.axes[i].value_label(coords[i]));
  }
  return labels;
}

std::uint64_t experiment_seed(std::uint64_t base_seed, std::size_t cell,
                              int replication, std::uint64_t stream) {
  // splitmix64 step: full-avalanche bijection, so chaining it over the
  // job coordinates yields independent, platform-stable streams.
  const auto mix = [](std::uint64_t z) {
    return common::splitmix64_next(z);
  };
  std::uint64_t s = mix(base_seed ^ 0x5397d21c3a5f0e1bULL);
  s = mix(s ^ static_cast<std::uint64_t>(cell));
  s = mix(s ^ static_cast<std::uint64_t>(replication));
  s = mix(s ^ stream);
  return s;
}

ScenarioSpec scenario_for(const ExperimentSpec& spec, std::size_t cell,
                          int replication) {
  ScenarioSpec s = spec.base;
  const auto coords = cell_coords(spec, cell);
  for (std::size_t i = 0; i < spec.axes.size(); ++i) {
    const GridAxisSpec& axis = spec.axes[i];
    const std::size_t ci = coords[i];
    switch (axis.kind) {
      case GridAxisKind::kScheduler:
        s.base.scheduler = axis.schedulers[ci];
        break;
      case GridAxisKind::kFpsScale: {
        const double f = axis.numeric[ci];
        for (auto& e : s.tasks) {
          e.fps *= f;
          // A rate scale shortens sporadic gaps by the same factor.
          if (e.min_separation_ms > 0.0) e.min_separation_ms /= f;
          if (e.max_separation_ms > 0.0) e.max_separation_ms /= f;
        }
        break;
      }
      case GridAxisKind::kUtilization:
        s.generator->total_utilization = axis.numeric[ci];
        break;
      case GridAxisKind::kDevices:
        s.base.num_devices = static_cast<int>(axis.numeric[ci]);
        s.fleet_mode = true;
        break;
      case GridAxisKind::kAdmissionMargin:
        // Like the CLI's --admission-margin: routes a 1-device run through
        // the cluster path so the margin actually applies.
        s.base.admission_margin = axis.numeric[ci];
        s.fleet_mode = true;
        break;
    }
  }
  s.base.seed = experiment_seed(spec.base_seed, cell, replication, 0);
  if (s.generator) {
    s.generator->seed = experiment_seed(spec.base_seed, cell, replication, 1);
  }
  return s;
}

std::string CellResult::label() const {
  return coords.empty() ? "all" : join_labels(coords);
}

namespace {

/// Everything a worker sends back: scalar metrics only, so threads never
/// share simulation state.
struct RunOutcome {
  bool ok = false;
  double dmr = 0.0;
  double fps = 0.0;
  double fps_on_time = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double oom = 0.0;
  double failovers = 0.0;
  double streams_lost = 0.0;
  double unavailability_s = 0.0;
  std::string error;
};

double oom_of(const SpecResult& r) {
  if (r.dynamic) return static_cast<double>(r.dyn.streams_oom_rejected);
  if (r.fleet) return static_cast<double>(r.cluster.fleet.tasks_oom_rejected);
  return 0.0;
}

/// One (cell, replication) job against the cell's shared immutable spec.
/// Replications differ only in their derived seeds, so the spec is built
/// once per cell (not once per job) and every worker reads it concurrently
/// through the seeded run_spec overload — no ScenarioSpec copies on the
/// job path.
RunOutcome run_one(const ExperimentSpec& spec, const ScenarioSpec& cell_spec,
                   std::size_t cell, int rep) {
  RunOutcome o;
  try {
    const RunSeeds seeds{experiment_seed(spec.base_seed, cell, rep, 0),
                         experiment_seed(spec.base_seed, cell, rep, 1)};
    const SpecResult r = run_spec(cell_spec, seeds);
    const metrics::Snapshot& a = r.aggregate();
    o.ok = true;
    o.dmr = a.dmr;
    o.fps = a.fps;
    o.fps_on_time = a.fps_on_time;
    o.p50_ms = a.p50_latency_ms;
    o.p99_ms = a.p99_latency_ms;
    o.oom = oom_of(r);
    if (r.dynamic) {
      o.failovers = static_cast<double>(r.dyn.failovers);
      o.streams_lost = static_cast<double>(r.dyn.streams_lost);
      o.unavailability_s = r.dyn.unavailability_s;
    }
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  return o;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentSpec& spec, int jobs) {
  validate(spec);

  const std::size_t cells = cell_count(spec);
  // One lowered spec per grid cell, shared read-only by every replication
  // job. Seeds inside use replication 0; the per-job RunSeeds override is
  // the only thing that varies, so this is equivalent to (and replaces)
  // building scenario_for(spec, cell, rep) fresh for each job.
  std::vector<ScenarioSpec> cell_specs;
  cell_specs.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    cell_specs.push_back(scenario_for(spec, c, 0));
  }

  struct Job {
    std::size_t cell;
    int rep;
  };
  std::vector<Job> plan;
  plan.reserve(cells * static_cast<std::size_t>(spec.replications));
  for (std::size_t c = 0; c < cells; ++c) {
    for (int r = 0; r < spec.replications; ++r) plan.push_back({c, r});
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<RunOutcome> outcomes(plan.size());
  const std::size_t workers =
      std::min(static_cast<std::size_t>(std::max(jobs, 1)), plan.size());
  if (workers <= 1) {
    for (std::size_t i = 0; i < plan.size(); ++i) {
      outcomes[i] =
          run_one(spec, cell_specs[plan[i].cell], plan[i].cell, plan[i].rep);
    }
  } else {
    common::ThreadPool pool(static_cast<int>(workers));
    std::vector<std::future<RunOutcome>> futures;
    futures.reserve(plan.size());
    for (const Job& j : plan) {
      futures.push_back(pool.submit([&spec, &cell_specs, j] {
        return run_one(spec, cell_specs[j.cell], j.cell, j.rep);
      }));
    }
    // Collection in submission order + serial reduction below is what makes
    // reports byte-identical for any worker count.
    for (std::size_t i = 0; i < plan.size(); ++i) {
      outcomes[i] = futures[i].get();
    }
  }
  const auto t1 = std::chrono::steady_clock::now();

  ExperimentResult result;
  result.name = spec.name;
  result.description = spec.description;
  result.replications = spec.replications;
  result.base_seed = spec.base_seed;
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  result.cells.resize(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    result.cells[c].index = c;
    result.cells[c].coords = cell_labels(spec, c);
  }
  for (std::size_t i = 0; i < plan.size(); ++i) {
    CellResult& cr = result.cells[plan[i].cell];
    const RunOutcome& o = outcomes[i];
    if (!o.ok) {
      ++cr.failures;
      ++result.total_failures;
      if (cr.first_error.empty()) cr.first_error = o.error;
      continue;
    }
    ++cr.runs;
    ++result.total_runs;
    cr.dmr.add(o.dmr);
    cr.fps.add(o.fps);
    cr.fps_on_time.add(o.fps_on_time);
    cr.p50_latency_ms.add(o.p50_ms);
    cr.p99_latency_ms.add(o.p99_ms);
    cr.oom_rejected.add(o.oom);
    cr.failovers.add(o.failovers);
    cr.streams_lost.add(o.streams_lost);
    cr.unavailability_s.add(o.unavailability_s);
  }
  return result;
}

void print_experiment(const ExperimentResult& r, std::ostream& out) {
  out << "experiment " << r.name;
  if (!r.description.empty()) out << " — " << r.description;
  out << "\n" << r.cells.size() << " cells x " << r.replications
      << " replications, base seed " << r.base_seed << "\n\n";

  std::vector<std::string> headers;
  if (r.cells.empty() || r.cells.front().coords.empty()) {
    headers.push_back("cell");
  } else {
    for (const auto& [k, v] : r.cells.front().coords) headers.push_back(k);
  }
  for (const char* h : {"runs", "DMR", "ci95", "on-time FPS", "ci95",
                        "p99 (ms)", "ci95", "oom", "fail"}) {
    headers.push_back(h);
  }

  metrics::Table t(headers);
  for (const auto& cell : r.cells) {
    std::vector<std::string> row;
    if (cell.coords.empty()) {
      row.push_back("all");
    } else {
      for (const auto& [k, v] : cell.coords) row.push_back(v);
    }
    const auto dmr = cell.dmr.confidence_interval();
    const auto fot = cell.fps_on_time.confidence_interval();
    const auto p99 = cell.p99_latency_ms.confidence_interval();
    row.push_back(std::to_string(cell.runs));
    row.push_back(metrics::Table::pct(dmr.mean, 2));
    row.push_back(metrics::Table::pct(dmr.half_width, 2));
    row.push_back(metrics::Table::fmt(fot.mean, 1));
    row.push_back(metrics::Table::fmt(fot.half_width, 1));
    row.push_back(metrics::Table::fmt(p99.mean, 2));
    row.push_back(metrics::Table::fmt(p99.half_width, 2));
    row.push_back(metrics::Table::fmt(cell.oom_rejected.mean(), 1));
    row.push_back(std::to_string(cell.failures));
    t.add_row(std::move(row));
  }
  t.print(out);

  for (const auto& cell : r.cells) {
    if (cell.failures > 0) {
      out << "\ncell {" << cell.label() << "}: " << cell.failures
          << " failed replication(s): " << cell.first_error << "\n";
    }
  }
}

namespace {

void csv_metric_cells(std::vector<std::string>& row,
                      const common::RunningStats& s) {
  const auto ci = s.confidence_interval();
  row.push_back(common::CsvWriter::num(ci.mean, 6));
  row.push_back(common::CsvWriter::num(ci.half_width, 6));
  row.push_back(common::CsvWriter::num(s.min(), 6));
  row.push_back(common::CsvWriter::num(s.max(), 6));
}

void json_metric(common::JsonWriter& w, const std::string& key,
                 const common::RunningStats& s) {
  const auto ci = s.confidence_interval();
  w.key(key).begin_object();
  w.field("mean", ci.mean);
  w.field("ci95", ci.half_width);
  w.field("min", s.min());
  w.field("max", s.max());
  w.end_object();
}

constexpr const char* kMetricNames[] = {
    "dmr",    "fps",          "fps_on_time",  "p50_ms",
    "p99_ms", "oom_rejected", "failovers",    "streams_lost",
    "unavailability_s"};

}  // namespace

void write_experiment_csv(const ExperimentResult& r, std::ostream& out) {
  common::CsvWriter csv(out);
  std::vector<std::string> header;
  header.push_back("cell");
  if (!r.cells.empty()) {
    for (const auto& [k, v] : r.cells.front().coords) header.push_back(k);
  }
  header.push_back("runs");
  header.push_back("failures");
  for (const char* m : kMetricNames) {
    header.push_back(std::string(m) + "_mean");
    header.push_back(std::string(m) + "_ci95");
    header.push_back(std::string(m) + "_min");
    header.push_back(std::string(m) + "_max");
  }
  header.push_back("error");
  csv.row(header);

  for (const auto& cell : r.cells) {
    std::vector<std::string> row;
    row.push_back(std::to_string(cell.index));
    for (const auto& [k, v] : cell.coords) row.push_back(v);
    row.push_back(std::to_string(cell.runs));
    row.push_back(std::to_string(cell.failures));
    csv_metric_cells(row, cell.dmr);
    csv_metric_cells(row, cell.fps);
    csv_metric_cells(row, cell.fps_on_time);
    csv_metric_cells(row, cell.p50_latency_ms);
    csv_metric_cells(row, cell.p99_latency_ms);
    csv_metric_cells(row, cell.oom_rejected);
    csv_metric_cells(row, cell.failovers);
    csv_metric_cells(row, cell.streams_lost);
    csv_metric_cells(row, cell.unavailability_s);
    row.push_back(cell.first_error);
    csv.row(row);
  }
}

void write_experiment_json(const ExperimentResult& r, std::ostream& out) {
  common::JsonWriter w(out);
  w.begin_object();
  w.field("experiment", r.name);
  if (!r.description.empty()) w.field("description", r.description);
  w.field("replications", r.replications);
  w.field("base_seed", static_cast<std::int64_t>(r.base_seed));
  w.field("cells", static_cast<std::int64_t>(r.cells.size()));
  w.field("total_runs", r.total_runs);
  w.field("total_failures", r.total_failures);
  w.key("results").begin_array();
  for (const auto& cell : r.cells) {
    w.begin_object();
    w.field("cell", static_cast<std::int64_t>(cell.index));
    w.key("coords").begin_object();
    for (const auto& [k, v] : cell.coords) w.field(k, v);
    w.end_object();
    w.field("runs", cell.runs);
    w.field("failures", cell.failures);
    if (!cell.first_error.empty()) w.field("first_error", cell.first_error);
    json_metric(w, "dmr", cell.dmr);
    json_metric(w, "fps", cell.fps);
    json_metric(w, "fps_on_time", cell.fps_on_time);
    json_metric(w, "p50_latency_ms", cell.p50_latency_ms);
    json_metric(w, "p99_latency_ms", cell.p99_latency_ms);
    json_metric(w, "oom_rejected", cell.oom_rejected);
    json_metric(w, "failovers", cell.failovers);
    json_metric(w, "streams_lost", cell.streams_lost);
    json_metric(w, "unavailability_s", cell.unavailability_s);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
}

}  // namespace sgprs::workload
