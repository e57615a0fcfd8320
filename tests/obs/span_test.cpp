// Span-tracing pins (--trace-spans, docs/observability.md).
//
// Two contracts, both load-bearing:
//  * Determinism — the Perfetto export is byte-identical at any --shards
//    count, the same bar the report/series/trace artifacts clear
//    (tests/sim/shard_determinism_test.cpp). Export order never depends on
//    shard interleaving because each device buffer is written only by its
//    owning shard and the exporter walks devices in index order.
//  * No perturbation — attaching a SpanSink changes zero bytes of the
//    report. Tracing observes the run; it must never steer it.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "../workload/result_digest.hpp"
#include "common/json.hpp"
#include "obs/instruments.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "workload/spec.hpp"

namespace sgprs::obs {
namespace {

workload::ScenarioSpec load_spec(const std::string& rel) {
  return workload::load_scenario_spec(std::string(SGPRS_SOURCE_DIR) + "/" +
                                      rel);
}

using workload::golden::result_bytes;

struct SpanRun {
  std::string report;  // result_bytes of the run
  std::string spans;   // Perfetto trace-event export
  std::int64_t events = 0;
  int devices = 0;
  workload::SpecResult result;
};

/// Runs `spec` at `shards` with a SpanSink attached, and a PhaseProfiler
/// too when `profiler` is non-null.
SpanRun run_with_spans(workload::ScenarioSpec spec, int shards,
                       PhaseProfiler* profiler = nullptr) {
  spec.base.shards = shards;
  workload::validate(spec);
  SpanSink sink;
  Instruments instruments;
  instruments.spans = &sink;
  instruments.profiler = profiler;
  SpanRun out;
  out.result = workload::run_spec(spec, workload::spec_seeds(spec), nullptr,
                                  instruments);
  out.report = result_bytes(out.result);
  std::ostringstream spans;
  sink.write_perfetto(spans);
  out.spans = spans.str();
  out.events = sink.total_events();
  out.devices = sink.num_devices();
  return out;
}

std::string run_without_instruments(workload::ScenarioSpec spec,
                                    int shards) {
  spec.base.shards = shards;
  return result_bytes(workload::run_spec(spec));
}

/// Events named `name` in a parsed trace-event document.
std::vector<const common::JsonValue*> events_named(
    const common::JsonValue& root, const std::string& name) {
  std::vector<const common::JsonValue*> out;
  for (const auto& e : root.at("traceEvents").items()) {
    if (const auto* n = e.find("name"); n && n->as_string() == name) {
      out.push_back(&e);
    }
  }
  return out;
}

TEST(SpanTest, ExportByteIdenticalAcrossShardCounts) {
  // heterogeneous_fleet is a static spec; its spans shard the same way.
  for (const std::string path : {"scenarios/diurnal_wave.json",
                                 "scenarios/device_crash_failover.json",
                                 "scenarios/heterogeneous_fleet.json"}) {
    SCOPED_TRACE(path);
    const auto spec = load_spec(path);
    const SpanRun baseline = run_with_spans(spec, 1);
    EXPECT_GT(baseline.events, 0);
    for (int shards : {2, 4, 8}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      const SpanRun sharded = run_with_spans(spec, shards);
      EXPECT_EQ(baseline.spans, sharded.spans);
      EXPECT_EQ(baseline.report, sharded.report);
      EXPECT_EQ(baseline.events, sharded.events);
    }
  }
}

TEST(SpanTest, TracingDoesNotPerturbReportBytes) {
  // The sink observes; it must not steer. Report + series bytes with a
  // SpanSink attached are identical to the uninstrumented run, at both
  // ends of the shard axis.
  for (const std::string path : {"scenarios/diurnal_wave.json",
                                 "scenarios/device_crash_failover.json"}) {
    SCOPED_TRACE(path);
    const auto spec = load_spec(path);
    for (int shards : {1, 8}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      EXPECT_EQ(run_without_instruments(spec, shards),
                run_with_spans(spec, shards).report);
    }
  }
}

TEST(SpanTest, StaticSpecInstrumentsLeaveDigestUnchanged) {
  // Closed-world specs run in the fleet runtime too, so they export spans;
  // attaching a sink and a profiler changes no bit of their results.
  for (const std::string path : {"scenarios/paper_scenario1.json",
                                 "scenarios/heterogeneous_fleet.json"}) {
    SCOPED_TRACE(path);
    const auto spec = load_spec(path);
    ASSERT_FALSE(spec.dynamic());
    PhaseProfiler profiler;
    const SpanRun run = run_with_spans(spec, 1, &profiler);
    EXPECT_EQ(run_without_instruments(spec, 1), run.report);
    EXPECT_GT(run.events, 0);
    EXPECT_FALSE(events_named(common::parse_json(run.spans), "exec").empty());
  }
}

TEST(SpanTest, ExportIsStrictTraceEventJson) {
  const auto run = run_with_spans(load_spec("scenarios/diurnal_wave.json"), 4);
  const auto root = common::parse_json(run.spans);  // throws on bad JSON

  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.at("displayTimeUnit").as_string(), "ms");
  const auto& events = root.at("traceEvents").items();
  ASSERT_FALSE(events.empty());

  int meta = 0, complete = 0, instant = 0;
  for (const auto& e : events) {
    const std::string ph = e.at("ph").as_string();
    EXPECT_TRUE(ph == "M" || ph == "X" || ph == "i") << ph;
    if (ph == "M") ++meta;
    if (ph == "X") {
      ++complete;
      EXPECT_GE(e.at("dur").as_number(), 0.0);
    }
    if (ph == "i") ++instant;
    EXPECT_GE(e.at("pid").as_int(), 0);
  }
  EXPECT_GT(meta, 1);      // control plane + at least one device track
  EXPECT_GT(complete, 0);  // job / stream spans
  EXPECT_GT(instant, 0);   // control-plane decisions

  // Track metadata names the control plane and every device.
  const auto names = events_named(root, "process_name");
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names[0]->at("args").at("name").as_string(), "control-plane");
  // One track per device the run ever built, plus the control plane.
  EXPECT_EQ(static_cast<int>(names.size()), run.devices + 1);

  // Job spans come in queue -> exec pairs on the task's tid.
  EXPECT_FALSE(events_named(root, "exec").empty());
}

TEST(SpanTest, CrashScenarioMarksAbortedInFlightJobs) {
  // flaky_fleet's stochastic crashes land while jobs are in flight (the
  // scripted device_crash_failover scenario crashes an idle device).
  const auto run =
      run_with_spans(load_spec("scenarios/flaky_fleet.json"), 1);
  const auto root = common::parse_json(run.spans);

  // The crash kills in-flight jobs; every kill shows up both in
  // the fault counters and as an abort_in_flight instant on the device
  // track, with the kill count in args.
  ASSERT_GT(run.result.dyn.jobs_faulted, 0);
  const auto aborts = events_named(root, "abort_in_flight");
  ASSERT_FALSE(aborts.empty());
  std::int64_t killed = 0;
  for (const auto* e : aborts) {
    EXPECT_EQ(e->at("ph").as_string(), "i");
    EXPECT_GT(e->at("pid").as_int(), 0);  // a device track, not pid 0
    killed += e->at("args").at("killed").as_int();
  }
  EXPECT_EQ(killed, run.result.dyn.jobs_faulted);

  // The control-plane track narrates the same incident.
  EXPECT_FALSE(events_named(root, "device_failed").empty());
}

TEST(SpanSinkUnit, StreamSegmentsSplitOnMoveAndCloseAtHorizon) {
  SpanSink sink;
  sink.stream_admitted(SimTime::from_ms(1), /*stream_id=*/5, /*device=*/0,
                       "cam");
  sink.stream_moved(SimTime::from_ms(2), 5, 1);
  sink.set_horizon(SimTime::from_ms(3));
  std::ostringstream os;
  sink.write_perfetto(os);
  const auto root = common::parse_json(os.str());

  const auto segs = events_named(root, "stream cam");
  ASSERT_EQ(segs.size(), 2u);
  // First segment: device 0 (pid 1), [1ms, 2ms). Second: device 1 (pid 2),
  // [2ms, horizon).
  EXPECT_EQ(segs[0]->at("pid").as_int(), 1);
  EXPECT_DOUBLE_EQ(segs[0]->at("ts").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(segs[0]->at("dur").as_number(), 1000.0);
  EXPECT_EQ(segs[1]->at("pid").as_int(), 2);
  EXPECT_DOUBLE_EQ(segs[1]->at("dur").as_number(), 1000.0);
  for (const auto* s : segs) {
    EXPECT_EQ(s->at("tid").as_int(), 5);
    EXPECT_EQ(s->at("args").at("template").as_string(), "cam");
  }
}

TEST(SpanSinkUnit, EmptySinkExportsValidDocument) {
  SpanSink sink;
  std::ostringstream os;
  sink.write_perfetto(os);
  const auto root = common::parse_json(os.str());
  // Just the control-plane track metadata.
  ASSERT_EQ(root.at("traceEvents").size(), 1u);
}

}  // namespace
}  // namespace sgprs::obs
