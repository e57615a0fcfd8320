// sgprs_cli — run any scheduler/pool/workload combination from the command
// line and print (or CSV-export) the paper's metrics.
//
// Examples (an indented line continues the command above it):
//   sgprs_cli --scheduler=sgprs --contexts=3 --oversub=1.5 --tasks=24
//   sgprs_cli --scheduler=naive --tasks=20 --duration=5
//   sgprs_cli --sweep=1:30 --csv=fig3.csv --contexts=2 --oversub=2.0
//   sgprs_cli --network=resnet50 --tasks=8 --fps=15 --stages=8
//   sgprs_cli --devices=4 --placement=binpack --tasks=40
//   sgprs_cli --devices=2080ti,3090 --placement=hash --tasks=24
//   sgprs_cli --scenario=scenarios/paper_scenario1.json
//   sgprs_cli --suite=scenarios --report=suite_report
//   sgprs_cli --experiment=scenarios/experiments/dmr_vs_utilization.json
//             --jobs=4 --report=experiment_report
//   sgprs_cli --scenario=scenarios/flash_crowd.json --record-trace=day.json
//   sgprs_cli --trace=day.json
//   sgprs_cli --scenario=scenarios/diurnal_wave.json
//             --trace-spans=spans.json --profile
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "cluster/cluster.hpp"
#include "common/csv.hpp"
#include "common/flags.hpp"
#include "common/thread_pool.hpp"
#include "dnn/builders.hpp"
#include "fleet/report.hpp"
#include "metrics/report.hpp"
#include "metrics/timeseries.hpp"
#include "obs/instruments.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "trace/trace.hpp"
#include "workload/experiment.hpp"
#include "workload/spec.hpp"
#include "workload/suite.hpp"

namespace {

using namespace sgprs;
namespace fs = std::filesystem;

/// Classic Levenshtein distance, for "did you mean" scenario suggestions.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// A missing --scenario/--experiment/--trace path gets nearby candidates
/// from its directory (or `fallback_dir`) instead of a bare "no such
/// file". `what` names the thing in the message ("spec", "trace").
void suggest_near(const std::string& path,
                  const std::string& fallback_dir = "scenarios",
                  const char* what = "spec") {
  const fs::path p(path);
  std::string dir = p.parent_path().string();
  if (dir.empty() || !fs::is_directory(dir)) dir = fallback_dir;
  const std::string stem = p.stem().string();
  auto files = workload::list_spec_files(dir);
  if (files.empty()) return;
  std::stable_sort(files.begin(), files.end(),
                   [&](const std::string& a, const std::string& b) {
                     return edit_distance(stem, fs::path(a).stem().string()) <
                            edit_distance(stem, fs::path(b).stem().string());
                   });
  std::cerr << "no " << what << " at " << path << " — did you mean:\n";
  for (std::size_t i = 0; i < files.size() && i < 3; ++i) {
    std::cerr << "  " << files[i] << "\n";
  }
}

/// A --record-trace path pointing into a missing directory gets nearby
/// sibling directories suggested (same Levenshtein ranking as spec paths).
void suggest_near_dir(const std::string& dir) {
  const fs::path p(dir);
  fs::path base = p.parent_path();
  if (base.empty()) base = ".";
  std::error_code ec;
  if (!fs::is_directory(base, ec)) return;
  std::vector<std::string> dirs;
  for (const auto& entry : fs::directory_iterator(base, ec)) {
    if (entry.is_directory()) dirs.push_back(entry.path().string());
  }
  if (dirs.empty()) return;
  const std::string name = p.filename().string();
  std::stable_sort(dirs.begin(), dirs.end(),
                   [&](const std::string& a, const std::string& b) {
                     return edit_distance(name,
                                          fs::path(a).filename().string()) <
                            edit_distance(name,
                                          fs::path(b).filename().string());
                   });
  std::cerr << "did you mean:\n";
  for (std::size_t i = 0; i < dirs.size() && i < 3; ++i) {
    std::cerr << "  " << dirs[i] << "/" << "\n";
  }
}

/// Opens a `flag`-supplied output file before the run burns any wall
/// clock: a missing or unwritable directory must fail fast with a pointed
/// error (and nearby-directory suggestions), not after the simulation
/// finishes. Shared by --record-trace and --trace-spans.
bool open_output_file(const char* flag, const std::string& path,
                      std::ofstream& out) {
  const fs::path parent = fs::path(path).parent_path();
  std::error_code ec;
  if (!parent.empty() && !fs::is_directory(parent, ec)) {
    std::cerr << "error: " << flag << ": directory \"" << parent.string()
              << "\" does not exist\n";
    suggest_near_dir(parent.string());
    return false;
  }
  out.open(path, std::ios::trunc);
  if (!out) {
    std::cerr << "error: " << flag << ": cannot write \"" << path
              << "\" (directory not writable?)\n";
    return false;
  }
  return true;
}

/// --list-scenarios: enumerate every spec in a directory with its kind and
/// description, without running anything.
int list_scenarios(const std::string& dir) {
  const auto files = workload::list_spec_files(dir);
  if (files.empty()) {
    std::cerr << "no .json scenario specs in " << dir << "\n";
    return 1;
  }
  metrics::Table t({"file", "name", "kind", "description"});
  for (const auto& file : files) {
    const std::string stem = fs::path(file).stem().string();
    // Trace *data* files (--record-trace / trace_scale output) are inputs
    // to replay specs, not runnable scenarios — label them as such.
    if (trace::sniff_trace_file(file)) {
      try {
        const auto tr = trace::load_trace(file);
        t.add_row({file, tr.name.empty() ? stem : tr.name, "trace-data",
                   tr.description});
      } catch (const std::exception& e) {
        t.add_row({file, stem, "invalid", e.what()});
      }
      continue;
    }
    try {
      const auto root = common::parse_json_file(file);
      const bool experiment = root.find("experiment") != nullptr;
      const auto spec = workload::parse_scenario_spec(
          root, stem, /*skip_experiment_section=*/experiment);
      std::string kind = "scenario";
      if (experiment) {
        kind = "experiment";
      } else if (spec.timeline && !spec.timeline->trace_path.empty()) {
        kind = "trace";
      } else if (spec.dynamic()) {
        kind = "dynamic";
      } else if (spec.fleet_mode) {
        kind = "fleet";
      }
      t.add_row({file, spec.name, kind, spec.description});
    } catch (const std::exception& e) {
      t.add_row({file, stem, "invalid", e.what()});
    }
  }
  t.print(std::cout);
  return 0;
}

/// Per-device breakdown plus the fleet rollup row.
void print_fleet(const workload::SpecResult& spec_result) {
  const auto& r = spec_result.cluster;
  metrics::Table devices({"device", "spec", "SMs", "tasks", "FPS", "DMR",
                          "p99 (ms)", "util"});
  for (const auto& d : r.fleet.devices) {
    devices.add_row({std::to_string(d.device_index), d.device_name,
                     std::to_string(d.total_sms),
                     std::to_string(d.tasks_assigned),
                     metrics::Table::fmt(d.snapshot.fps, 1),
                     metrics::Table::pct(d.snapshot.dmr),
                     metrics::Table::fmt(d.snapshot.p99_latency_ms, 2),
                     metrics::Table::pct(d.utilization)});
  }
  devices.print(std::cout);

  const auto& f = r.fleet.fleet;
  metrics::Table fleet({"fleet metric", "value"});
  fleet.add_row({"tasks placed", std::to_string(r.fleet.tasks_assigned)});
  fleet.add_row({"tasks rejected",
                 std::to_string(r.fleet.tasks_rejected)});
  fleet.add_row({"tasks oom-rejected",
                 std::to_string(r.fleet.tasks_oom_rejected)});
  fleet.add_row({"total FPS", metrics::Table::fmt(f.fps, 1)});
  fleet.add_row({"on-time FPS", metrics::Table::fmt(f.fps_on_time, 1)});
  fleet.add_row({"DMR", metrics::Table::pct(f.dmr)});
  fleet.add_row({"p99 latency (ms)",
                 metrics::Table::fmt(f.p99_latency_ms, 2)});
  fleet.add_row({"mean utilization",
                 metrics::Table::pct(r.fleet.mean_utilization)});
  fleet.add_row({"migrations", std::to_string(r.stage_migrations)});
  std::cout << "\n";
  fleet.print(std::cout);
}

/// Single-run metrics table (shared by the flag path and --scenario).
void print_single(const std::string& scheduler,
                  const workload::SpecResult& spec_result) {
  const auto& r = spec_result.single;
  metrics::Table t({"metric", "value"});
  t.add_row({"scheduler", scheduler});
  t.add_row({"tasks", std::to_string(r.per_task.size())});
  t.add_row({"total FPS", metrics::Table::fmt(r.fps(), 1)});
  t.add_row({"on-time FPS", metrics::Table::fmt(r.aggregate.fps_on_time, 1)});
  t.add_row({"DMR", metrics::Table::pct(r.dmr())});
  t.add_row({"p50 latency (ms)",
             metrics::Table::fmt(r.aggregate.p50_latency_ms, 2)});
  t.add_row({"p99 latency (ms)",
             metrics::Table::fmt(r.aggregate.p99_latency_ms, 2)});
  t.add_row({"migrations", std::to_string(r.stage_migrations)});
  t.add_row({"medium promotions", std::to_string(r.medium_promotions)});
  t.print(std::cout);
}

/// Shared tail of --scenario and --trace: run the (already validated)
/// spec, optionally capturing a trace, print the summary, write report
/// files, and flush the recorded trace last. `origin` names the input in
/// the recorded trace's description.
int run_loaded_spec(const workload::ScenarioSpec& spec,
                    const std::string& origin, const std::string& report,
                    const std::string& record_path,
                    const std::string& span_path, bool profile) {
  std::ofstream trace_out;
  std::unique_ptr<trace::TraceRecorder> recorder;
  if (!record_path.empty()) {
    if (!open_output_file("--record-trace", record_path, trace_out)) {
      return 1;
    }
    recorder = std::make_unique<trace::TraceRecorder>(
        spec.name, "recorded from " + origin);
  }
  std::ofstream span_out;
  std::unique_ptr<obs::SpanSink> spans;
  if (!span_path.empty()) {
    if (!open_output_file("--trace-spans", span_path, span_out)) return 1;
    spans = std::make_unique<obs::SpanSink>();
  }
  std::unique_ptr<obs::PhaseProfiler> profiler;
  if (profile) profiler = std::make_unique<obs::PhaseProfiler>();
  obs::Instruments instruments;
  instruments.spans = spans.get();
  instruments.profiler = profiler.get();

  workload::validate(spec);
  const auto r = [&] {
    obs::PhaseProfiler::Scope whole(profiler.get(),
                                    obs::PhaseProfiler::Phase::kRun);
    return workload::run_spec(spec, workload::spec_seeds(spec),
                              recorder.get(), instruments);
  }();
  std::cout << "scenario " << spec.name;
  if (!spec.description.empty()) std::cout << " — " << spec.description;
  std::cout << "\n\n";
  if (r.dynamic) {
    fleet::print_fleet_run(r.dyn, std::cout);
    if (!report.empty()) {
      obs::PhaseProfiler::Scope write(
          profiler.get(), obs::PhaseProfiler::Phase::kReportWrite);
      const std::string json_path = report + ".json";
      const std::string series_path = report + "_series.csv";
      std::ofstream json(json_path);
      std::ofstream series(series_path);
      if (!json || !series) {
        std::cerr << "cannot write " << (json ? series_path : json_path)
                  << "\n";
        return 1;
      }
      fleet::write_fleet_run_json(r.dyn, json);
      metrics::write_timeseries_csv(r.dyn.series, series);
      std::cout << "\nwrote " << json_path << " and " << series_path << "\n";
    }
  } else {
    if (r.fleet) {
      print_fleet(r);
    } else {
      print_single(rt::to_string(spec.base.scheduler), r);
    }
    if (!report.empty()) {
      std::cerr << "note: --report with --scenario only writes files for "
                   "dynamic (timeline/fleet_policy) scenarios; nothing "
                   "written\n";
    }
  }
  if (recorder) {
    trace::write_trace(recorder->trace(), trace_out);
    std::cout << "wrote trace " << record_path << " ("
              << recorder->trace().events.size() << " events)\n";
  }
  if (spans) {
    {
      obs::PhaseProfiler::Scope exp(profiler.get(),
                                    obs::PhaseProfiler::Phase::kSpanExport);
      spans->write_perfetto(span_out);
    }
    std::cout << "wrote spans " << span_path << " ("
              << spans->total_events() << " events, "
              << spans->num_devices() << " device tracks)\n";
  }
  if (profiler) {
    // Wall-clock numbers go to stderr (varies run to run) and, with
    // --report, to a _profile.json sidecar that the deterministic
    // byte-compare set deliberately excludes.
    profiler->print(std::cerr);
    if (!report.empty()) {
      const std::string prof_path = report + "_profile.json";
      std::ofstream prof_out(prof_path);
      if (!prof_out) {
        std::cerr << "cannot write " << prof_path << "\n";
        return 1;
      }
      profiler->write_json(prof_out);
      std::cout << "wrote " << prof_path << "\n";
    }
  }
  return 0;
}

/// Parses one --fail-device value ("<device>@<seconds>") into a scripted
/// crash event. Returns false with a pointed message on any malformation.
bool parse_fail_device(const std::string& arg, fleet::FaultEvent& ev) {
  const auto at = arg.find('@');
  if (at == std::string::npos || at == 0 || at + 1 == arg.size()) {
    std::cerr << "error: --fail-device: want <device>@<seconds> "
                 "(e.g. 2@1.5), got \"" << arg << "\"\n";
    return false;
  }
  const std::string dev = arg.substr(0, at);
  const std::string when = arg.substr(at + 1);
  char* end = nullptr;
  const long idx = std::strtol(dev.c_str(), &end, 10);
  if (!end || *end != '\0' || idx < 0) {
    std::cerr << "error: --fail-device: device index must be a "
                 "non-negative integer, got \"" << dev << "\"\n";
    return false;
  }
  const double t = std::strtod(when.c_str(), &end);
  if (!end || *end != '\0' || !(t > 0.0)) {
    std::cerr << "error: --fail-device: crash time must be a positive "
                 "number of seconds, got \"" << when << "\"\n";
    return false;
  }
  ev.kind = fleet::FaultEvent::Kind::kCrash;
  ev.device = static_cast<int>(idx);
  ev.at_s = t;
  return true;
}

/// Injects --fail-device crashes into the spec's fault section (creating
/// one when the spec has none). Validation of device indices against the
/// fleet shape is the spec validator's job — it names the field path.
bool inject_fail_devices(const std::vector<std::string>& fail_devices,
                         workload::ScenarioSpec& spec) {
  if (fail_devices.empty()) return true;
  if (!spec.faults) spec.faults = fleet::FaultSpec{};
  for (const auto& arg : fail_devices) {
    fleet::FaultEvent ev;
    if (!parse_fail_device(arg, ev)) return false;
    spec.faults->events.push_back(ev);
  }
  workload::validate(spec);
  return true;
}

/// --scenario=file.json: run one declarative spec. Dynamic (timeline /
/// fleet_policy) runs print the fleet-run summary and, when --report is
/// set, write <report>.json (full run incl. time series and audit) and
/// <report>_series.csv. With --trace the spec's timeline is replaced by
/// the trace (replay against the spec's base config); with --record-trace
/// the run's admit/retire stream is written out.
int run_spec_file(const std::string& path, const std::string& report,
                  const std::string& trace_path,
                  const std::string& record_path,
                  std::optional<int> shards_override,
                  const std::vector<std::string>& fail_devices,
                  const std::string& span_path, bool profile) {
  if (!fs::exists(path)) {
    std::cerr << "error: no such scenario spec: " << path << "\n";
    suggest_near(path);
    return 1;
  }
  auto spec = workload::load_scenario_spec(path);
  if (shards_override) {
    // --shards re-partitions the run without editing the spec; any count
    // yields byte-identical reports (docs/sharding.md).
    spec.base.shards = *shards_override;
    workload::validate(spec);
  }
  if (!trace_path.empty()) {
    if (!fs::exists(trace_path)) {
      std::cerr << "error: no such trace: " << trace_path << "\n";
      suggest_near(trace_path, "scenarios/traces", "trace");
      return 1;
    }
    fleet::TimelineSpec tl;
    tl.trace_path = trace_path;
    tl.trace = std::make_shared<const trace::Trace>(
        trace::load_trace(trace_path));
    spec.timeline = std::move(tl);
    workload::validate(spec);
  }
  if (!inject_fail_devices(fail_devices, spec)) return 1;
  return run_loaded_spec(spec, path, report, record_path, span_path,
                         profile);
}

/// --experiment=file.json: expand the grid x replications, run on a worker
/// pool, print the per-cell CI table and write <report>.csv/.json.
int run_experiment_file(const std::string& path, int jobs,
                        const std::string& report,
                        std::optional<int> shards_override) {
  auto spec = workload::load_experiment_spec(path);
  if (shards_override) {
    // Shards compose with --jobs: each replication runs sharded inside
    // one of the pool's jobs. Results are byte-identical either way.
    spec.base.base.shards = *shards_override;
    workload::validate(spec.base);
  }

  // Open the report files before burning wall clock on the grid: an
  // unwritable --report path must fail fast, not after the whole run.
  const std::string csv_path = report + ".csv";
  const std::string json_path = report + ".json";
  std::ofstream csv(csv_path);
  std::ofstream json(json_path);
  if (!csv || !json) {
    std::cerr << "cannot write " << (csv ? json_path : csv_path) << "\n";
    return 1;
  }

  if (jobs <= 0) jobs = common::ThreadPool::hardware_threads();
  const auto r = workload::run_experiment(spec, jobs);
  workload::print_experiment(r, std::cout);
  std::cout << "\n" << r.total_runs << " runs (" << r.total_failures
            << " failed) on " << std::min(jobs, r.total_runs)
            << " job(s) in " << metrics::Table::fmt(r.wall_seconds, 2)
            << " s\n";

  workload::write_experiment_csv(r, csv);
  workload::write_experiment_json(r, json);
  std::cout << "wrote " << csv_path << " and " << json_path << "\n";
  return r.total_failures == 0 ? 0 : 1;
}

/// --suite=dir: run every spec, print the comparison, write the report.
int run_suite_dir(const std::string& dir, const std::string& report) {
  const auto runs = workload::run_suite(dir);
  workload::print_suite(runs, std::cout);

  const std::string csv_path = report + ".csv";
  const std::string json_path = report + ".json";
  std::ofstream csv(csv_path);
  std::ofstream json(json_path);
  if (!csv || !json) {
    std::cerr << "cannot write " << (csv ? json_path : csv_path) << "\n";
    return 1;
  }
  workload::write_suite_csv(runs, csv);
  workload::write_suite_json(runs, json);
  std::cout << "\nwrote " << csv_path << " and " << json_path << "\n";
  return workload::suite_ok(runs) ? 0 : 1;
}

/// Fills `spec.base` and `spec.fleet_mode` from the shared workload flags
/// (docs/scenario-format.md maps each flag to its spec field). Returns
/// false — with the message already printed — on an unknown name; range
/// checks are validate(spec)'s, which names the field path.
bool parse_base_config(const common::FlagParser& flags,
                       workload::ScenarioSpec& spec) {
  workload::ScenarioConfig& cfg = spec.base;
  const std::string sched = flags.get("scheduler");
  if (const auto kind = rt::parse_scheduler_kind(sched)) {
    cfg.scheduler = *kind;
  } else {
    std::cerr << "unknown --scheduler (want "
              << rt::scheduler_kind_names() << "): " << sched << "\n";
    return false;
  }
  cfg.num_contexts = flags.get_int("contexts");
  cfg.oversubscription = flags.get_double("oversub");
  cfg.duration = workload::spec_seconds(flags.get_double("duration"),
                                        "spec.sim.duration_s");
  cfg.warmup = workload::spec_seconds(flags.get_double("warmup"),
                                      "spec.sim.warmup_s");
  cfg.seed = workload::checked_seed(flags.get_int("seed"), "spec.sim.seed");
  cfg.sgprs.medium_boost = flags.get_bool("medium-boost");
  cfg.sgprs.abort_hopeless = flags.get_bool("abort-hopeless");
  cfg.sgprs.max_in_flight_per_task = flags.get_int("in-flight");

  const auto fleet = cluster::parse_fleet(flags.get("devices"));
  if (!fleet) {
    std::cerr << "bad --devices (want a count in 1.."
              << cluster::kMaxFleetDevices << " or a comma list of "
              << gpu::device_names() << "): " << flags.get("devices")
              << "\n";
    return false;
  }
  cfg.num_devices = static_cast<int>(fleet->size());
  if (cfg.num_devices == 1) {
    cfg.device = fleet->front();  // single-GPU path honours --devices=3090
  } else {
    cfg.fleet = *fleet;
  }
  // Placement/admission only exist on the cluster path; an explicit flag
  // on a 1-device run routes there too (instead of being silently
  // dropped), giving a one-device fleet with admission control.
  spec.fleet_mode = cfg.num_devices > 1 || flags.has("placement") ||
                    flags.has("admission-margin");
  if (const auto policy =
          cluster::parse_placement_policy(flags.get("placement"))) {
    cfg.placement = *policy;
  } else {
    std::cerr << "unknown --placement (want "
              << cluster::placement_policy_names()
              << "): " << flags.get("placement") << "\n";
    return false;
  }
  cfg.admission_margin = flags.get_double("admission-margin");
  if (flags.has("shards")) cfg.shards = flags.get_int("shards");
  return true;
}

/// The workload flags as a spec: the base config plus one task entry of
/// --tasks identical streams (--network, --fps, --stages).
bool parse_flag_spec(const common::FlagParser& flags,
                     workload::ScenarioSpec& spec) {
  if (!parse_base_config(flags, spec)) return false;
  workload::TaskEntrySpec& e = spec.tasks.emplace_back();
  e.count = flags.get_int("tasks");
  e.network = flags.get("network");
  e.fps = flags.get_double("fps");
  e.num_stages = flags.get_int("stages");
  spec.name = "flags";
  std::ostringstream d;
  if (spec.fleet_mode) {
    d << spec.base.num_devices << "-device fleet, placement "
      << cluster::to_string(spec.base.placement) << ", ";
  }
  d << "scheduler " << rt::to_string(spec.base.scheduler) << ", " << e.count
    << " tasks offered";
  spec.description = d.str();
  return true;
}

/// --sweep=from:to: the flag spec at every task count in the range (the
/// x-axis of Figs. 3 and 4) on one device, with the pivot point.
int run_sweep(const common::FlagParser& flags,
              const workload::ScenarioSpec& spec) {
  for (const char* flag :
       {"fail-device", "record-trace", "trace-spans", "profile"}) {
    if (flags.has(flag)) {
      std::cerr << "error: --" << flag << " does not combine with --sweep\n";
      return 1;
    }
  }
  const std::string s = flags.get("sweep");
  const auto colon = s.find(':');
  if (colon == std::string::npos) {
    std::cerr << "--sweep wants from:to, got " << s << "\n";
    return 1;
  }
  const int sweep_from = std::atoi(s.substr(0, colon).c_str());
  const int sweep_to = std::atoi(s.substr(colon + 1).c_str());
  if (sweep_from < 1 || sweep_to < sweep_from) {
    std::cerr << "bad --sweep range\n";
    return 1;
  }
  if (spec.fleet_mode) {
    std::cerr << "--sweep is not supported in fleet mode; use "
                 "bench/fig_cluster_scaling for fleet sweeps\n";
    return 1;
  }
  const auto results = workload::sweep_num_tasks(spec, sweep_from, sweep_to);
  const int pivot = workload::find_pivot(results, sweep_from);
  if (flags.has("csv")) {
    std::ofstream out(flags.get("csv"));
    if (!out) {
      std::cerr << "cannot write " << flags.get("csv") << "\n";
      return 1;
    }
    common::CsvWriter csv(out);
    csv.header({"tasks", "fps", "fps_on_time", "dmr", "p50_ms", "p99_ms"});
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& a = results[i].aggregate();
      csv.row({std::to_string(sweep_from + static_cast<int>(i)),
               common::CsvWriter::num(a.fps, 2),
               common::CsvWriter::num(a.fps_on_time, 2),
               common::CsvWriter::num(a.dmr, 4),
               common::CsvWriter::num(a.p50_latency_ms, 3),
               common::CsvWriter::num(a.p99_latency_ms, 3)});
    }
    std::cout << "wrote " << results.size() << " rows to "
              << flags.get("csv") << " (pivot at " << pivot << " tasks)\n";
    return 0;
  }
  metrics::Table t({"tasks", "total FPS", "DMR"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    t.add_row({std::to_string(sweep_from + static_cast<int>(i)),
               metrics::Table::fmt(results[i].fps(), 0),
               metrics::Table::pct(results[i].dmr())});
  }
  t.print(std::cout);
  std::cout << "pivot: " << pivot << " tasks\n";
  return 0;
}

/// --trace=file.json (no --scenario): replay a recorded trace against the
/// base config the flags describe. The sim window defaults to the trace's
/// horizon plus half a second of drain unless --duration is explicit.
int run_trace_file(const std::string& path, const common::FlagParser& flags,
                   const std::string& report,
                   const std::string& record_path,
                   const std::vector<std::string>& fail_devices,
                   const std::string& span_path, bool profile) {
  if (!fs::exists(path)) {
    std::cerr << "error: no such trace: " << path << "\n";
    suggest_near(path, "scenarios/traces", "trace");
    return 1;
  }
  workload::ScenarioSpec spec;
  if (!parse_base_config(flags, spec)) return 1;
  auto tr = std::make_shared<const trace::Trace>(trace::load_trace(path));
  spec.name = tr->name.empty() ? fs::path(path).stem().string() : tr->name;
  spec.description = tr->description;
  spec.fleet_mode = true;  // all load comes from the trace
  fleet::TimelineSpec tl;
  tl.trace_path = path;
  tl.trace = tr;
  spec.timeline = std::move(tl);
  if (!flags.has("duration")) {
    spec.base.duration =
        common::SimTime::from_ns(tr->horizon().ns + 500'000'000);
  }
  workload::validate(spec);
  if (!inject_fail_devices(fail_devices, spec)) return 1;
  return run_loaded_spec(spec, path, report, record_path, span_path,
                         profile);
}

/// --shards when given; it then overrides the spec's sim.shards and goes
/// through the same range check.
std::optional<int> shards_flag(const common::FlagParser& flags) {
  if (!flags.has("shards")) return std::nullopt;
  return flags.get_int("shards");
}

int run(const common::FlagParser& flags) {
  if (flags.get_bool("list-scenarios")) {
    return list_scenarios(flags.has("suite") ? flags.get("suite")
                                             : "scenarios");
  }
  if (flags.has("scenario")) {
    return run_spec_file(flags.get("scenario"),
                         flags.has("report") ? flags.get("report") : "",
                         flags.get("trace"), flags.get("record-trace"),
                         shards_flag(flags), flags.get_all("fail-device"),
                         flags.get("trace-spans"), flags.get_bool("profile"));
  }
  if (flags.has("trace")) {
    return run_trace_file(flags.get("trace"), flags,
                          flags.has("report") ? flags.get("report") : "",
                          flags.get("record-trace"),
                          flags.get_all("fail-device"),
                          flags.get("trace-spans"),
                          flags.get_bool("profile"));
  }
  if (flags.has("experiment")) {
    // Each job is a thread: bound the count like --shards, before any
    // input is read.
    const int jobs = flags.get_int("jobs");
    if (jobs < 0 || jobs > cluster::kMaxShards) {
      std::cerr << "error: --jobs must be in 0.." << cluster::kMaxShards
                << " (0 = all hardware threads), got " << jobs << "\n";
      return 1;
    }
    if (!fs::exists(flags.get("experiment"))) {
      std::cerr << "error: no such experiment spec: "
                << flags.get("experiment") << "\n";
      suggest_near(flags.get("experiment"));
      return 1;
    }
    // Distinct default prefix: an experiment must never silently overwrite
    // a suite_report.* pair from an earlier --suite run.
    return run_experiment_file(flags.get("experiment"), jobs,
                               flags.has("report") ? flags.get("report")
                                                   : "experiment_report",
                               shards_flag(flags));
  }
  if (flags.has("suite")) {
    return run_suite_dir(flags.get("suite"), flags.get("report"));
  }

  workload::ScenarioSpec spec;
  if (!parse_flag_spec(flags, spec)) return 1;
  if (flags.has("sweep")) return run_sweep(flags, spec);
  if (!inject_fail_devices(flags.get_all("fail-device"), spec)) return 1;
  return run_loaded_spec(spec, "flags",
                         flags.has("report") ? flags.get("report") : "",
                         flags.get("record-trace"), flags.get("trace-spans"),
                         flags.get_bool("profile"));
}

}  // namespace

int main(int argc, char** argv) {
  common::FlagParser flags;
  flags.define("scheduler", rt::scheduler_kind_names(), "sgprs");
  flags.define("contexts", "context pool size (paper: 2 or 3)", "2");
  flags.define("oversub", "over-subscription level (SGPRS only)", "1.5");
  flags.define("tasks", "number of identical periodic tasks", "16");
  flags.define("fps", "task rate", "30");
  flags.define("stages", "stages per task", "6");
  flags.define("network", dnn::network_names(), "resnet18");
  flags.define("duration", "simulated seconds", "2.0");
  flags.define("warmup", "warm-up seconds excluded from metrics", "0.4");
  flags.define("seed", "phase-jitter seed", "42");
  flags.define("in-flight", "max in-flight jobs per task", "1");
  flags.define("sweep", "sweep task counts, e.g. 1:30", "");
  flags.define("csv", "write sweep results to a CSV file", "");
  flags.define("scenario",
               "run a declarative JSON scenario spec "
               "(docs/scenario-format.md); other workload flags are ignored",
               "");
  flags.define("suite",
               "run every .json spec in a directory and write a comparison "
               "report",
               "");
  flags.define_bool("list-scenarios",
                    "list the specs in scenarios/ (or the --suite dir) with "
                    "their kind and description, without running them");
  flags.define("report",
               "report file prefix (writes <prefix>.csv and <prefix>.json; "
               "default suite_report for --suite, experiment_report for "
               "--experiment)",
               "suite_report");
  flags.define("experiment",
               "run a Monte-Carlo experiment spec (docs/experiments.md): "
               "grid x seed replications with 95% CIs",
               "");
  flags.define("trace",
               "replay a recorded trace (docs/traces.md): alone, against "
               "the base-config flags; with --scenario, replaces that "
               "spec's timeline",
               "");
  flags.define("record-trace",
               "write the run's admit/retire stream as a trace file", "");
  flags.define("trace-spans",
               "write the run's execution spans as Chrome/Perfetto "
               "trace-event JSON (open in ui.perfetto.dev); "
               "byte-identical at any --shards (docs/observability.md)",
               "");
  flags.define_bool("profile",
                    "time the runtime's coarse phases (wall clock) and "
                    "print a per-phase table to stderr; with --report also "
                    "writes <report>_profile.json (excluded from "
                    "deterministic byte-compares)");
  flags.define("jobs",
               "worker threads for --experiment, 0..64 (0 = all hardware "
               "threads; results are byte-identical for any value)",
               "0");
  flags.define_multi("fail-device",
                     "inject a scripted crash into the run: "
                     "<device>@<seconds>, e.g. --fail-device 2@1.5");
  flags.define("shards",
               "parallel shards inside one run, 1..64 (overrides the "
               "spec's sim.shards; results are byte-identical for any "
               "value)",
               "1");
  flags.define("devices",
               "fleet: a device count (\"4\") or a comma list of device "
               "names (\"2080ti,3090\")",
               "1");
  flags.define("placement",
               std::string("fleet placement policy: ") +
                   cluster::placement_policy_names(),
               "leastloaded");
  flags.define("admission-margin",
               "fleet admission budget as a fraction of per-device "
               "capacity; 0 disables admission control",
               "0.95");
  flags.define("medium-boost",
               "medium-priority promotion of late chains (paper: on)",
               "true");
  flags.define_bool("abort-hopeless", "abort jobs past their deadline");
  flags.define_bool("help", "show this help");

  if (!flags.parse(argc, argv)) {
    std::cerr << flags.error() << "\n" << flags.help(argv[0]);
    return 1;
  }
  if (flags.get_bool("help")) {
    std::cout << flags.help(argv[0]);
    return 0;
  }
  try {
    return run(flags);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
