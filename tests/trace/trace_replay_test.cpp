// The record/replay determinism contract (ISSUE acceptance):
//  * recording a dynamic run and replaying the trace against the same base
//    spec reproduces the full JSON report AND the series CSV byte for byte
//    (diurnal_wave with autoscaling; flash_crowd with Poisson arrivals and
//    shedding);
//  * re-recording the replay yields the original trace bytes (capture is a
//    fixed point);
//  * a trace-driven spec inside a parallel experiment fan-out is
//    byte-identical for --jobs 1 and --jobs 4;
//  * closed-world specs capture the initial task set the run placed as t=0
//    admissions and replay as an open-world run serving the same streams.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "fleet/report.hpp"
#include "gpu/device.hpp"
#include "metrics/timeseries.hpp"
#include "trace/trace.hpp"
#include "workload/experiment.hpp"
#include "workload/spec.hpp"

namespace sgprs::trace {
namespace {

std::string report_bytes(const fleet::FleetRunResult& r) {
  std::ostringstream os;
  fleet::write_fleet_run_json(r, os);
  return os.str();
}

std::string series_bytes(const fleet::FleetRunResult& r) {
  std::ostringstream os;
  metrics::write_timeseries_csv(r.series, os);
  return os.str();
}

std::string trace_bytes(const Trace& t) {
  std::ostringstream os;
  write_trace(t, os);
  return os.str();
}

workload::ScenarioSpec load_scenario(const char* name) {
  return workload::load_scenario_spec(std::string(SGPRS_SOURCE_DIR) +
                                      "/scenarios/" + name + ".json");
}

/// The spec that replays `t` against `spec`'s base: same base config,
/// tasks and policy, timeline replaced by the trace.
workload::ScenarioSpec replay_spec(const workload::ScenarioSpec& spec,
                                   Trace t) {
  workload::ScenarioSpec replay = spec;
  fleet::TimelineSpec tl;
  tl.trace = std::make_shared<const Trace>(std::move(t));
  replay.timeline = std::move(tl);
  workload::validate(replay);
  return replay;
}

void expect_record_replay_identical(const workload::ScenarioSpec& spec) {
  TraceRecorder recorder(spec.name, "capture");
  const auto original = workload::run_spec(spec, &recorder);
  ASSERT_TRUE(original.dynamic);
  ASSERT_FALSE(recorder.trace().events.empty());
  validate_trace(recorder.trace());

  const auto replay = replay_spec(spec, recorder.trace());
  TraceRecorder rerecorder(spec.name, "capture");
  const auto replayed = workload::run_spec(replay, &rerecorder);
  ASSERT_TRUE(replayed.dynamic);

  EXPECT_EQ(report_bytes(replayed.dyn), report_bytes(original.dyn));
  EXPECT_EQ(series_bytes(replayed.dyn), series_bytes(original.dyn));
  // Capture is a fixed point: recording the replay gives the same trace.
  EXPECT_EQ(trace_bytes(rerecorder.trace()), trace_bytes(recorder.trace()));
}

TEST(TraceReplayTest, DiurnalWaveRecordReplayByteIdentical) {
  const auto spec = load_scenario("diurnal_wave");
  expect_record_replay_identical(spec);
}

TEST(TraceReplayTest, FlashCrowdRecordReplayByteIdentical) {
  const auto spec = load_scenario("flash_crowd");
  expect_record_replay_identical(spec);
}

TEST(TraceReplayTest, CaptureDoesNotPerturbTheRun) {
  const auto spec = load_scenario("diurnal_wave");
  const auto plain = workload::run_spec(spec);
  TraceRecorder recorder(spec.name, "capture");
  const auto captured = workload::run_spec(spec, &recorder);
  EXPECT_EQ(report_bytes(captured.dyn), report_bytes(plain.dyn));
}

TEST(TraceReplayTest, ExperimentFanOutOverTraceSpecMatchesSerial) {
  const auto spec = load_scenario("diurnal_wave");
  TraceRecorder recorder(spec.name, "capture");
  (void)workload::run_spec(spec, &recorder);

  workload::ExperimentSpec exp;
  exp.name = "trace_fanout";
  exp.base = replay_spec(spec, recorder.trace());
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

TEST(TraceReplayTest, StaticRunCapturesInitialTasksAndReplays) {
  workload::ScenarioSpec spec;
  spec.name = "static_capture";
  spec.base.duration = common::SimTime::from_sec(1.0);
  spec.base.warmup = common::SimTime::from_sec(0.1);
  spec.base.admission_margin = 0.9;
  spec.fleet_mode = true;
  workload::TaskEntrySpec e;
  e.name = "cam";
  e.count = 6;
  spec.tasks.push_back(e);
  workload::validate(spec);

  TraceRecorder recorder(spec.name, "capture");
  const auto closed = workload::run_spec(spec, &recorder);
  ASSERT_TRUE(closed.fleet);
  ASSERT_FALSE(closed.dynamic);

  const Trace& t = recorder.trace();
  validate_trace(t);
  ASSERT_EQ(t.events.size(), 6u);
  for (const auto& ev : t.events) {
    EXPECT_EQ(ev.kind, TraceEvent::Kind::kAdmit);
    EXPECT_EQ(ev.t_ns, 0);
    EXPECT_EQ(ev.source, "initial");
  }

  // Replaying the captured task set serves the same six streams through
  // the open-world runtime.
  workload::ScenarioSpec replay;
  replay.name = "static_replay";
  replay.base = spec.base;
  replay.fleet_mode = true;
  fleet::TimelineSpec tl;
  tl.trace = std::make_shared<const Trace>(t);
  replay.timeline = std::move(tl);
  workload::validate(replay);
  const auto open = workload::run_spec(replay);
  ASSERT_TRUE(open.dynamic);
  EXPECT_EQ(open.dyn.streams_admitted, 6);
  EXPECT_EQ(open.dyn.releases, closed.cluster.releases);
}

TEST(TraceReplayTest, StaticCaptureRecordsTheTasksTheRunPlaced) {
  // One RTX 3090 described two ways: as the base device, and as a
  // one-device fleet over the default 2080 Ti base device with admission
  // off. Both runs profile the generated tasks at the 3090's pool sizes
  // and serve them identically, so both captures must be identical too.
  auto generated = [] {
    workload::ScenarioSpec spec;
    spec.name = "generated";
    spec.base.num_contexts = 3;
    spec.base.duration = common::SimTime::from_sec(1.0);
    spec.base.warmup = common::SimTime::from_sec(0.2);
    workload::GeneratorSpec g;
    g.count = 6;
    g.networks = {"resnet18", "mobilenet"};
    spec.generator = g;
    return spec;
  };
  workload::ScenarioSpec on_device = generated();
  on_device.base.device = gpu::rtx3090();
  workload::ScenarioSpec in_fleet = generated();
  in_fleet.fleet_mode = true;
  in_fleet.base.fleet = {gpu::rtx3090()};
  in_fleet.base.admission_margin = 0.0;

  TraceRecorder device_capture(on_device.name, "capture");
  const auto device_run = workload::run_spec(on_device, &device_capture);
  TraceRecorder fleet_capture(in_fleet.name, "capture");
  const auto fleet_run = workload::run_spec(in_fleet, &fleet_capture);
  ASSERT_TRUE(fleet_run.fleet);
  EXPECT_EQ(fleet_run.fps(), device_run.fps());
  EXPECT_EQ(fleet_run.migrations(), device_run.migrations());
  ASSERT_EQ(fleet_capture.trace().templates.size(), 6u);
  EXPECT_EQ(trace_bytes(fleet_capture.trace()),
            trace_bytes(device_capture.trace()));
}

TEST(TraceReplayTest, TraceDrivenTimelineRejectsOtherSections) {
  auto spec = load_scenario("diurnal_wave");
  ASSERT_TRUE(spec.timeline.has_value());
  spec.timeline->trace_path = "whatever.json";
  try {
    workload::validate(spec);
    FAIL() << "expected SpecError";
  } catch (const workload::SpecError& e) {
    EXPECT_EQ(e.path(), "spec.timeline.trace");
  }
}

}  // namespace
}  // namespace sgprs::trace
