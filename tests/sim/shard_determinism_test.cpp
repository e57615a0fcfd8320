// The sharded-run determinism pins (ISSUE acceptance): a dynamic scenario
// partitioned over any number of shards produces byte-identical outputs —
// full report JSON (devices, series, audit trail), the series CSV, and the
// recorded trace — to the classic single-calendar run at --shards 1.
//
// Pinned here for every curated dynamic scenario, for a round-robin fleet
// built in code, for the trace-driven replay spec, for every curated static
// (closed-world) scenario, and for sharded runs inside a parallel
// experiment fan-out (--jobs and --shards composed). These tests run under
// TSan in CI (the ShardDeterminism filter), so they double as a race check
// on the epoch-barrier handoff between the control plane and the shard
// engines.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fleet/report.hpp"
#include "metrics/timeseries.hpp"
#include "trace/trace.hpp"
#include "workload/experiment.hpp"
#include "workload/spec.hpp"
#include "workload/suite.hpp"

namespace sgprs::fleet {
namespace {

workload::ScenarioSpec load_spec(const std::string& rel) {
  return workload::load_scenario_spec(std::string(SGPRS_SOURCE_DIR) + "/" +
                                      rel);
}

/// Everything a run serializes, concatenated: the full JSON report, the
/// time-series CSV and the recorded admit/retire trace. Byte equality of
/// this string is the acceptance bar — not metric-by-metric tolerance.
std::string run_bytes(workload::ScenarioSpec spec, int shards,
                      FleetRunResult* out = nullptr) {
  spec.base.shards = shards;
  trace::TraceRecorder recorder(spec.name, "shard determinism pin");
  FleetRunResult r = workload::run_spec(spec, &recorder).dyn;
  std::ostringstream os;
  write_fleet_run_json(r, os);
  metrics::write_timeseries_csv(r.series, os);
  trace::write_trace(recorder.trace(), os);
  if (out) *out = std::move(r);
  return os.str();
}

/// A device-dominated fleet with round-robin placement, which no curated
/// scenario uses: 8 devices, 48 steady `cam` streams at oversubscription
/// 1.5, admission off, and a policy-only dynamic section (no autoscaler or
/// churn), so the only control-plane instants are the 500 ms series samples.
workload::ScenarioSpec round_robin_spec() {
  workload::ScenarioSpec spec;
  spec.name = "round_robin_steady";
  spec.base.num_contexts = 2;
  spec.base.oversubscription = 1.5;
  spec.base.duration = common::SimTime::from_sec(2.0);
  spec.base.warmup = common::SimTime::from_sec(0.2);
  spec.base.seed = 42;
  spec.base.num_devices = 8;
  spec.base.placement = cluster::PlacementPolicy::kRoundRobin;
  spec.base.admission_margin = 0.0;
  spec.fleet_mode = true;
  workload::TaskEntrySpec cams;
  cams.name = "cam";
  cams.count = 48;
  spec.tasks.push_back(cams);
  FleetPolicySpec policy;
  policy.series_window_ms = 500.0;
  spec.fleet_policy = std::move(policy);
  return spec;
}

TEST(ShardDeterminismTest, CuratedScenariosByteIdenticalAcrossShardCounts) {
  std::vector<std::pair<std::string, workload::ScenarioSpec>> specs;
  for (const char* path : {
           "scenarios/diurnal_wave.json",
           "scenarios/flash_crowd.json",
           "scenarios/tenant_churn.json",
           "scenarios/scale_down_drain.json",
           "scenarios/memory_constrained.json",
           "scenarios/device_crash_failover.json",
           "scenarios/flaky_fleet.json",
           "scenarios/correlated_outage.json",
       }) {
    specs.emplace_back(path, load_spec(path));
  }
  specs.emplace_back("round_robin_spec()", round_robin_spec());
  for (const auto& [label, spec] : specs) {
    SCOPED_TRACE(label);
    ASSERT_TRUE(spec.dynamic());
    FleetRunResult classic;
    const std::string baseline = run_bytes(spec, 1, &classic);
    // The pin is only meaningful if the run exercises the open world.
    EXPECT_GT(classic.streams_admitted, 0);
    for (int shards : {2, 4, 8}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      EXPECT_EQ(baseline, run_bytes(spec, shards));
    }
  }
}

TEST(ShardDeterminismTest, MemoryConstrainedOomStableAcrossShardCounts) {
  // The memory-constrained scenario rejects streams with VRAM as the sole
  // blocker; that oom classification — counters, series column, audit
  // records — must be part of the byte-identical surface, not just the
  // happy-path placements (ISSUE acceptance: --shards 1 vs 8).
  const auto spec = load_spec("scenarios/memory_constrained.json");
  FleetRunResult classic;
  const std::string baseline = run_bytes(spec, 1, &classic);
  EXPECT_GT(classic.streams_admitted, 0);
  EXPECT_GT(classic.streams_oom_rejected, 0);
  EXPECT_LE(classic.streams_oom_rejected, classic.streams_rejected);
  FleetRunResult sharded;
  EXPECT_EQ(baseline, run_bytes(spec, 8, &sharded));
  EXPECT_EQ(classic.streams_oom_rejected, sharded.streams_oom_rejected);
}

TEST(ShardDeterminismTest, FaultCountersStableAcrossShardCounts) {
  // The fault path is the sternest determinism test: crash instants come
  // from a seeded exponential process keyed on (device, incident) — never
  // on shard or event order — and failover re-placement races the regular
  // admission stream. Every fault counter and audit record must be part of
  // the byte-identical surface, and the scenario must actually exercise
  // the machinery (a vacuous pin would pass with faults disabled).
  const auto spec = load_spec("scenarios/flaky_fleet.json");
  FleetRunResult classic;
  const std::string baseline = run_bytes(spec, 1, &classic);
  EXPECT_GT(classic.streams_admitted, 0);
  EXPECT_GT(classic.devices_failed, 0);
  EXPECT_GT(classic.failovers, 0);
  FleetRunResult sharded;
  EXPECT_EQ(baseline, run_bytes(spec, 8, &sharded));
  EXPECT_EQ(classic.devices_failed, sharded.devices_failed);
  EXPECT_EQ(classic.failovers, sharded.failovers);
  EXPECT_EQ(classic.jobs_faulted, sharded.jobs_faulted);
  EXPECT_EQ(classic.unavailability_s, sharded.unavailability_s);
}

TEST(ShardDeterminismTest, TraceDrivenReplayByteIdenticalAcrossShardCounts) {
  const auto spec = load_spec("scenarios/traces/flash_crowd_replay.json");
  FleetRunResult classic;
  const std::string baseline = run_bytes(spec, 1, &classic);
  EXPECT_GT(classic.streams_admitted, 0);
  EXPECT_GT(classic.streams_retired, 0);
  for (int shards : {2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EXPECT_EQ(baseline, run_bytes(spec, shards));
  }
}

void digest_snapshot(std::ostringstream& os, const metrics::Snapshot& s) {
  os << s.counts.released << "," << s.counts.dropped << ","
     << s.counts.on_time << "," << s.counts.late << "," << s.fps << ","
     << s.fps_on_time << "," << s.dmr << "," << s.mean_latency_ms << ","
     << s.p50_latency_ms << "," << s.p99_latency_ms << ","
     << s.max_latency_ms << ";";
}

/// A closed-world run's suite-report row plus a bit-exact (hexfloat)
/// digest of the golden-trace fields: every per-device and per-task
/// snapshot, sim_events, busy SM-seconds, releases and migrations.
std::string static_run_bytes(const std::string& file,
                             workload::ScenarioSpec spec, int shards) {
  spec.base.shards = shards;
  workload::SuiteRun run;
  run.file = file;
  run.ok = true;
  run.scenario = spec.name;
  run.description = spec.description;
  run.result = workload::run_spec(spec);
  const workload::SpecResult& r = run.result;
  std::ostringstream os;
  workload::write_suite_json({run}, os);
  os << std::hexfloat;
  digest_snapshot(os, r.aggregate());
  if (r.fleet) {
    for (const auto& d : r.cluster.fleet.devices) {
      os << "dev" << d.device_index << "," << d.busy_sm_seconds << ":";
      digest_snapshot(os, d.snapshot);
    }
    os << "events=" << r.cluster.sim_events;
  } else {
    for (const auto& t : r.single.per_task) digest_snapshot(os, t);
    os << "events=" << r.single.sim_events
       << "|busy=" << r.single.gpu_busy_sm_seconds;
  }
  os << "|releases=" << r.releases() << "|migrations=" << r.migrations();
  return os.str();
}

TEST(ShardDeterminismTest, StaticSpecsByteIdenticalAcrossShardCounts) {
  // A closed-world run is a fleet-runtime run with only the series
  // sampler on the control calendar, so it shards the same way: every
  // static curated spec must report the same bytes at any shard count.
  int static_specs = 0;
  for (const auto& file : workload::list_spec_files(
           std::string(SGPRS_SOURCE_DIR) + "/scenarios")) {
    const auto spec = workload::load_scenario_spec(file);
    if (spec.dynamic()) continue;
    ++static_specs;
    SCOPED_TRACE(file);
    const std::string baseline = static_run_bytes(file, spec, 1);
    for (int shards : {2, 4, 8}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      EXPECT_EQ(baseline, static_run_bytes(file, spec, shards));
    }
  }
  EXPECT_GT(static_specs, 0);
}

TEST(ShardDeterminismTest, ExperimentFanOutShardedMatchesSerial) {
  // --jobs and --shards compose: replications fan out across the worker
  // pool while each run shards internally. Both axes must be invisible in
  // the report bytes.
  workload::ExperimentSpec exp;
  exp.name = "shard_fanout";
  exp.base = load_spec("scenarios/diurnal_wave.json");
  exp.replications = 3;
  exp.base_seed = 7;

  const auto bytes = [](const workload::ExperimentResult& r) {
    std::ostringstream csv, json;
    workload::write_experiment_csv(r, csv);
    workload::write_experiment_json(r, json);
    return csv.str() + json.str();
  };

  exp.base.base.shards = 1;
  const auto serial = workload::run_experiment(exp, 1);
  ASSERT_EQ(serial.total_failures, 0) << serial.cells[0].first_error;

  exp.base.base.shards = 4;
  const auto sharded = workload::run_experiment(exp, 4);
  ASSERT_EQ(sharded.total_failures, 0) << sharded.cells[0].first_error;

  EXPECT_EQ(bytes(serial), bytes(sharded));
}

}  // namespace
}  // namespace sgprs::fleet
