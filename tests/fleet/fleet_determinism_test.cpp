// Determinism pins for open-world runs (ISSUE acceptance):
//  * the shipped diurnal_wave scenario — churn plus at least one scale-up
//    and one scale-down — replays byte-identically (full JSON report,
//    series and audit included);
//  * the same dynamic spec inside a parallel experiment fan-out produces
//    byte-identical reports for --jobs 1 and --jobs 4;
//  * a dynamic run without churn agrees with the closed-world cluster
//    path on the workload it serves (cross-path consistency).
#include <gtest/gtest.h>

#include <sstream>

#include "fleet/report.hpp"
#include "workload/experiment.hpp"
#include "workload/spec.hpp"

namespace sgprs::fleet {
namespace {

std::string report_bytes(const FleetRunResult& r) {
  std::ostringstream os;
  write_fleet_run_json(r, os);
  return os.str();
}

workload::ScenarioSpec load_diurnal() {
  return workload::load_scenario_spec(std::string(SGPRS_SOURCE_DIR) +
                                      "/scenarios/diurnal_wave.json");
}

TEST(FleetDeterminismTest, DiurnalWaveReplaysByteIdentical) {
  const auto spec = load_diurnal();
  const FleetRunResult first = workload::run_spec(spec).dyn;
  const FleetRunResult second = workload::run_spec(spec).dyn;

  // The scenario must actually exercise the control plane: churn both
  // ways and at least one scale-up and one scale-down.
  EXPECT_GT(first.streams_admitted, 4);
  EXPECT_GT(first.streams_retired, 0);
  EXPECT_GE(first.scale_ups, 1);
  EXPECT_GE(first.scale_downs, 1);

  EXPECT_EQ(report_bytes(first), report_bytes(second));
}

TEST(FleetDeterminismTest, ExperimentFanOutMatchesSerial) {
  // Wrap the dynamic scenario in a pure seed-replication experiment and
  // compare the full reports across worker counts.
  workload::ExperimentSpec exp;
  exp.name = "fleet_fanout";
  exp.base = load_diurnal();
  exp.replications = 3;
  exp.base_seed = 7;

  const auto serial = workload::run_experiment(exp, 1);
  const auto parallel = workload::run_experiment(exp, 4);
  ASSERT_EQ(serial.total_failures, 0) << serial.cells[0].first_error;
  ASSERT_EQ(parallel.total_failures, 0);

  const auto bytes = [](const workload::ExperimentResult& r) {
    std::ostringstream csv, json;
    workload::write_experiment_csv(r, csv);
    workload::write_experiment_json(r, json);
    return csv.str() + json.str();
  };
  EXPECT_EQ(bytes(serial), bytes(parallel));
}

TEST(FleetDeterminismTest, NoChurnDynamicRunMatchesClusterPath) {
  // A spec whose only open-world feature is an (inert) fleet policy must
  // serve exactly the workload of the same spec without it.
  workload::ScenarioSpec spec;
  spec.name = "no_churn";
  spec.base.duration = common::SimTime::from_sec(1.0);
  spec.base.warmup = common::SimTime::from_sec(0.1);
  spec.base.admission_margin = 0.9;
  spec.fleet_mode = true;
  workload::TaskEntrySpec e;
  e.name = "cam";
  e.count = 6;
  spec.tasks.push_back(e);
  workload::validate(spec);

  const auto closed = workload::run_spec(spec);
  ASSERT_TRUE(closed.fleet);

  spec.fleet_policy = FleetPolicySpec{};
  workload::validate(spec);
  const auto open = workload::run_spec(spec);
  ASSERT_TRUE(open.dynamic);

  EXPECT_EQ(open.dyn.releases, closed.cluster.releases);
  EXPECT_DOUBLE_EQ(open.dyn.fleet.fleet.fps, closed.cluster.fleet.fleet.fps);
  EXPECT_DOUBLE_EQ(open.dyn.fleet.fleet.dmr, closed.cluster.fleet.fleet.dmr);
  EXPECT_DOUBLE_EQ(open.dyn.fleet.fleet.p99_latency_ms,
                   closed.cluster.fleet.fleet.p99_latency_ms);
  EXPECT_EQ(open.dyn.stage_migrations, closed.cluster.stage_migrations);
}

}  // namespace
}  // namespace sgprs::fleet
