#include "workload/spec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <utility>

#include "cluster/cluster.hpp"

namespace sgprs::workload {
namespace {

using common::SimTime;

ScenarioSpec parse(const std::string& json,
                   const std::string& name = "test_spec") {
  return parse_scenario_spec(common::parse_json(json), name);
}

/// The field path of the SpecError validate() throws, "<no error>" when
/// the spec passes.
std::string path_of(const ScenarioSpec& s) {
  try {
    validate(s);
  } catch (const SpecError& e) {
    return e.path();
  }
  return "<no error>";
}

/// A tiny heterogeneous spec that runs in well under a second.
constexpr const char* kTinyMixed = R"({
  "scheduler": "sgprs",
  "pool": { "contexts": 2, "oversubscription": 1.5 },
  "sim": { "duration_s": 0.6, "warmup_s": 0.1 },
  "tasks": [
    { "name": "cam", "count": 2, "network": "lenet5", "fps": 30, "stages": 3 },
    { "name": "tiny", "count": 1, "network": "mlp3", "fps": 60, "stages": 2 }
  ]
})";

TEST(SpecParse, FullDocumentRoundTrips) {
  const auto spec = parse(R"({
    "name": "full",
    "description": "everything set",
    "scheduler": "naive",
    "device": "3090",
    "pool": { "contexts": 3, "oversubscription": 2.0, "context_sms": [40, 20] },
    "sim": { "duration_s": 1.5, "warmup_s": 0.25, "seed": 7, "jitter_phases": false },
    "sgprs": { "medium_boost": false, "abort_hopeless": true,
               "max_in_flight": 2, "queue_order": "fifo" },
    "naive": { "max_in_flight": 3, "host_sync_gap_ms": 0.5 },
    "tasks": [
      { "name": "cam", "count": 4, "network": "resnet50", "fps": 15,
        "stages": 8, "deadline_ms": 50, "phase_ms": 3.5,
        "priority": "all_high" },
      { "count": 2, "network": "lenet5", "stages": 3,
        "arrival": "sporadic", "min_separation_ms": 16.7,
        "max_separation_ms": 40 }
    ]
  })");
  EXPECT_EQ(spec.name, "full");
  EXPECT_EQ(spec.description, "everything set");
  EXPECT_EQ(spec.base.scheduler, SchedulerKind::kNaive);
  EXPECT_EQ(spec.base.device.total_sms, 82);
  EXPECT_EQ(spec.base.num_contexts, 3);
  EXPECT_DOUBLE_EQ(spec.base.oversubscription, 2.0);
  EXPECT_EQ(spec.base.context_sms, (std::vector<int>{40, 20}));
  EXPECT_EQ(spec.base.duration, SimTime::from_sec(1.5));
  EXPECT_EQ(spec.base.warmup, SimTime::from_sec(0.25));
  EXPECT_EQ(spec.base.seed, 7u);
  EXPECT_FALSE(spec.base.jitter_phases);
  EXPECT_FALSE(spec.base.sgprs.medium_boost);
  EXPECT_TRUE(spec.base.sgprs.abort_hopeless);
  EXPECT_EQ(spec.base.sgprs.max_in_flight_per_task, 2);
  EXPECT_EQ(spec.base.sgprs.queue_order, rt::QueueOrder::kFifo);
  EXPECT_EQ(spec.base.naive.max_in_flight_per_task, 3);
  EXPECT_FALSE(spec.fleet_mode);

  ASSERT_EQ(spec.tasks.size(), 2u);
  const auto& cam = spec.tasks[0];
  EXPECT_EQ(cam.name, "cam");
  EXPECT_EQ(cam.count, 4);
  EXPECT_EQ(cam.network, "resnet50");
  EXPECT_DOUBLE_EQ(cam.fps, 15.0);
  EXPECT_EQ(cam.num_stages, 8);
  EXPECT_DOUBLE_EQ(cam.deadline_ms, 50.0);
  EXPECT_DOUBLE_EQ(cam.phase_ms, 3.5);
  EXPECT_EQ(cam.priority_policy, rt::PriorityPolicy::kAllHigh);
  EXPECT_EQ(cam.arrival, rt::ArrivalModel::kPeriodic);
  const auto& burst = spec.tasks[1];
  EXPECT_EQ(burst.arrival, rt::ArrivalModel::kSporadic);
  EXPECT_DOUBLE_EQ(burst.min_separation_ms, 16.7);
  EXPECT_DOUBLE_EQ(burst.max_separation_ms, 40.0);
}

TEST(SpecParse, FleetSection) {
  const auto spec = parse(R"({
    "fleet": { "devices": ["2080ti", "3090"], "placement": "binpack",
               "admission_margin": 0.9 },
    "tasks": [ { "count": 4 } ]
  })");
  EXPECT_TRUE(spec.fleet_mode);
  ASSERT_EQ(spec.base.fleet.size(), 2u);
  EXPECT_EQ(spec.base.fleet[1].total_sms, 82);
  EXPECT_EQ(spec.base.placement, cluster::PlacementPolicy::kBinPackUtilization);
  EXPECT_DOUBLE_EQ(spec.base.admission_margin, 0.9);

  const auto counted = parse(R"({
    "fleet": { "devices": 3 },
    "tasks": [ { "count": 4 } ]
  })");
  EXPECT_TRUE(counted.fleet_mode);
  EXPECT_EQ(counted.base.num_devices, 3);
  EXPECT_TRUE(counted.base.fleet.empty()) << "count = copies of base.device";
}

TEST(SpecParse, FootprintAndMemoryKeys) {
  const auto spec = parse(R"({
    "fleet": { "devices": 2, "placement": "binpack_memory",
               "occupancy_threshold": 0.8, "device_mem_mb": 4096 },
    "tasks": [
      { "count": 1, "mem_mb": 512.5, "warps": 96 },
      { "count": 1 }
    ]
  })");
  EXPECT_EQ(spec.base.placement, cluster::PlacementPolicy::kBinPackMemory);
  EXPECT_DOUBLE_EQ(spec.base.occupancy_threshold, 0.8);
  EXPECT_DOUBLE_EQ(spec.base.device_mem_mb, 4096.0);
  EXPECT_DOUBLE_EQ(spec.tasks[0].mem_mb, 512.5);
  EXPECT_EQ(spec.tasks[0].warps, 96);
  // Omitted overrides keep the derive-from-profile sentinel.
  EXPECT_DOUBLE_EQ(spec.tasks[1].mem_mb, -1.0);
  EXPECT_EQ(spec.tasks[1].warps, -1);

  // The worstfit alias (pre-fix binpack ordering) parses too.
  const auto wf = parse(R"({
    "fleet": { "devices": 2, "placement": "worstfit" },
    "tasks": [ { "count": 1 } ]
  })");
  EXPECT_EQ(wf.base.placement, cluster::PlacementPolicy::kWorstFit);

  // Range validation: negative overrides and out-of-range thresholds.
  auto invalid = parse(R"({
    "fleet": { "devices": 2 },
    "tasks": [ { "count": 1, "mem_mb": -5 } ]
  })");
  EXPECT_THROW(validate(invalid), SpecError);
  auto bad_occ = parse(R"({
    "fleet": { "devices": 2, "occupancy_threshold": 1.5 },
    "tasks": [ { "count": 1 } ]
  })");
  EXPECT_THROW(validate(bad_occ), SpecError);
}

TEST(SpecParse, UnknownKeysAreErrors) {
  EXPECT_THROW(parse(R"({"tasks": [{}], "shceduler": "sgprs"})"), SpecError);
  EXPECT_THROW(parse(R"({"tasks": [{}], "pool": {"contxts": 2}})"),
               SpecError);
  EXPECT_THROW(parse(R"({"tasks": [{"fsp": 30}]})"), SpecError);
  try {
    parse(R"({"tasks": [{}], "pool": {"contxts": 2}})");
  } catch (const SpecError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("spec.pool"), std::string::npos) << msg;
    EXPECT_NE(msg.find("contxts"), std::string::npos) << msg;
    EXPECT_NE(msg.find("allowed"), std::string::npos) << msg;
  }
  // The retired steal ablation is an unknown key like any other.
  try {
    parse(R"({"tasks":[{}],"sgprs":{"high_streams_steal":true}})");
    ADD_FAILURE() << "sgprs.high_streams_steal was accepted";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "spec.sgprs") << e.what();
  }
}

TEST(SpecParse, SporadicFpsAndMinSeparationConflict) {
  // fps is only the shorthand for min_separation on sporadic tasks;
  // stating both is rejected instead of silently preferring one.
  EXPECT_THROW(parse(R"({"tasks": [
    { "arrival": "sporadic", "fps": 60, "min_separation_ms": 100 }
  ]})"),
               SpecError);
  EXPECT_NO_THROW(parse(R"({"tasks": [
    { "arrival": "sporadic", "fps": 60 }
  ]})"));
  EXPECT_NO_THROW(parse(R"({"tasks": [
    { "arrival": "sporadic", "min_separation_ms": 100 }
  ]})"));
  // Templates accept both: recorded traces write the two together.
  EXPECT_NO_THROW(validate(parse(R"({"timeline": {"templates": [
    { "name": "b", "arrival": "sporadic", "fps": 60, "min_separation_ms": 100 }
  ]}})")));
}

TEST(SpecParse, EntryAndTemplateDefaults) {
  const TaskEntrySpec e;
  EXPECT_EQ(e.name, "task");
  EXPECT_EQ(e.tier, 0);
  EXPECT_LT(e.phase_ms, 0.0) << "seeded random phase";
  EXPECT_EQ(e.count, 1);
  const fleet::StreamTemplate t;
  EXPECT_EQ(t.name, "");
  EXPECT_EQ(t.tier, 1);
  EXPECT_EQ(t.phase_ms, 0.0);
  // A template must be named; a task entry need not be.
  EXPECT_THROW(parse(R"({"timeline": {"templates": [{}]}})"), SpecError);
  EXPECT_EQ(parse(R"({"tasks": [{}]})").tasks[0].name, "task");
}

TEST(SpecParse, BadEnumsNameTheAlternatives) {
  try {
    parse(R"({"scheduler": "fifo", "tasks": [{}]})");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("sgprs|naive"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse(R"({"device": "titan", "tasks": [{}]})"), SpecError);
  EXPECT_THROW(parse(R"({"tasks": [{"arrival": "poisson"}]})"), SpecError);
  EXPECT_THROW(parse(R"({"tasks": [{"priority": "highest"}]})"), SpecError);
  EXPECT_THROW(
      parse(R"({"fleet": {"placement": "spread"}, "tasks": [{}]})"),
      SpecError);
}

TEST(SpecParse, TypeMismatchNamesFieldPath) {
  try {
    parse(R"({"pool": {"contexts": "two"}, "tasks": [{}]})");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("spec.pool.contexts"), std::string::npos) << msg;
  }
  EXPECT_THROW(parse(R"({"tasks": [{"fps": "fast"}]})"), SpecError);
  EXPECT_THROW(parse(R"({"tasks": [{"count": 2.5}]})"), SpecError);
  EXPECT_THROW(parse(R"({"tasks": "lots"})"), SpecError);
  EXPECT_THROW(parse(R"({"fleet": {"devices": true}, "tasks": [{}]})"),
               SpecError);
}

TEST(SpecValidate, TaskEntryRules) {
  auto base = parse(kTinyMixed);
  EXPECT_NO_THROW(validate(base));

  auto bad = base;
  bad.tasks[0].fps = 0.0;
  EXPECT_THROW(validate(bad), SpecError);
  bad = base;
  bad.tasks[0].count = 0;
  EXPECT_THROW(validate(bad), SpecError);
  bad = base;
  bad.tasks[0].network = "resnet1b";
  EXPECT_THROW(validate(bad), SpecError);
  bad = base;
  bad.tasks[0].min_separation_ms = 10.0;  // separations on a periodic task
  EXPECT_THROW(validate(bad), SpecError);
  bad = base;
  bad.tasks[0].arrival = rt::ArrivalModel::kSporadic;
  bad.tasks[0].min_separation_ms = 50.0;
  bad.tasks[0].max_separation_ms = 20.0;
  EXPECT_THROW(validate(bad), SpecError);
  // Hostile numbers fail with the field path instead of aborting later.
  bad = base;
  bad.tasks[0].fps = 1e308;  // period below 1 ns
  EXPECT_EQ(path_of(bad), "spec.tasks[0].fps");
  bad = base;
  bad.tasks[0].fps = std::numeric_limits<double>::infinity();
  EXPECT_EQ(path_of(bad), "spec.tasks[0].fps");
  bad = base;
  bad.tasks[0].deadline_ms = 1e300;  // past SimTime's range
  EXPECT_EQ(path_of(bad), "spec.tasks[0].deadline_ms");
  bad = base;
  bad.tasks[0].count = 2000000000;
  EXPECT_EQ(path_of(bad), "spec.tasks[0].count");
  bad = base;
  bad.tasks[1].count = static_cast<int>(kMaxInitialStreams);  // total too
  EXPECT_EQ(path_of(bad), "spec.tasks[1].count");
}

TEST(SpecValidate, TasksXorGenerator) {
  EXPECT_THROW(validate(parse(R"({"sim": {"duration_s": 1}})")), SpecError);
  auto both = parse(kTinyMixed);
  both.generator = GeneratorSpec{};
  EXPECT_THROW(validate(both), SpecError);
}

TEST(SpecValidate, GeneratorBoundsNameTheirField) {
  // Each used to reach an internal CHECK: a sub-nanosecond period in the
  // profiler, or a period past SimTime's range in the collector.
  ScenarioSpec base;
  base.generator = GeneratorSpec{};
  ASSERT_EQ(path_of(base), "<no error>");
  const double kInf = std::numeric_limits<double>::infinity();
  const std::pair<std::function<void(GeneratorSpec&)>, std::string>
      cases[] = {
          {[](auto& g) {
             g.max_fps = 1e12;
             g.total_utilization = 1e12;
           },
           "spec.generator.max_fps"},
          {[](auto& g) {
             g.min_fps = 1e-12;
             g.total_utilization = 1e-12;
           },
           "spec.generator.min_fps"},
          {[](auto& g) { g.min_fps = 0.0; }, "spec.generator.min_fps"},
          {[](auto& g) { g.min_fps = std::nan(""); },
           "spec.generator.min_fps"},
          {[=](auto& g) { g.max_fps = kInf; }, "spec.generator.max_fps"},
          {[](auto& g) { g.max_fps = 1.0; }, "spec.generator"},
          {[](auto& g) { g.total_utilization = 0.0; },
           "spec.generator.total_utilization"},
          {[=](auto& g) { g.total_utilization = kInf; },
           "spec.generator.total_utilization"},
          {[](auto& g) { g.total_utilization = std::nan(""); },
           "spec.generator.total_utilization"},
      };
  for (const auto& [mutate, path] : cases) {
    ScenarioSpec bad = base;
    mutate(*bad.generator);
    EXPECT_EQ(path_of(bad), path);
  }
  // The bounds themselves are accepted: a 1 ns period at the top, and a
  // huge but finite utilization (clamped to max_fps per task).
  ScenarioSpec ok = base;
  ok.generator->max_fps = 1e9;
  ok.generator->total_utilization = 1e12;
  EXPECT_EQ(path_of(ok), "<no error>");
}

TEST(SpecValidate, BaseConfigErrorsSurfaceAsSpecErrors) {
  auto spec = parse(kTinyMixed);
  spec.base.oversubscription = 0.5;
  try {
    validate(spec);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("oversubscription"),
              std::string::npos)
        << e.what();
  }
  spec = parse(kTinyMixed);
  spec.base.warmup = spec.base.duration;
  EXPECT_THROW(validate(spec), SpecError);
  spec = parse(kTinyMixed);
  spec.base.admission_margin = 1.5;
  EXPECT_THROW(validate(spec), SpecError);
  // Out-of-range sim times fail at parse, before they become SimTimes.
  std::string doc = kTinyMixed;
  doc.replace(doc.find("\"duration_s\": 0.6"), 17, "\"duration_s\": 1e308");
  try {
    parse(doc);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "spec.sim.duration_s") << e.what();
  }
  // Every context needs at least one SM.
  spec = parse(kTinyMixed);
  spec.base.num_contexts = 100000000;
  try {
    validate(spec);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "spec.pool.contexts") << e.what();
  }
  // Devices the autoscaler adds bound the pool too: 80 SMs fit the base
  // 3090 but not the 2080 Ti the autoscaler would add (a CHECK abort in
  // the pool when that device was built).
  spec = parse(kTinyMixed);
  spec.base.device = gpu::rtx3090();
  spec.base.context_sms = {80, 40};
  EXPECT_NO_THROW(validate(spec));
  spec.fleet_policy = fleet::FleetPolicySpec{};
  spec.fleet_policy->autoscaler.kind = fleet::AutoscalePolicyKind::kUtilization;
  spec.fleet_policy->autoscaler.device = "2080ti";
  try {
    validate(spec);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "spec.pool.context_sms[0]") << e.what();
  }
  // A mistyped fleet size fails before any device is allocated.
  spec = parse(kTinyMixed);
  spec.fleet_mode = true;
  spec.base.num_devices = 1000000000;
  try {
    validate(spec);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "spec.fleet.devices") << e.what();
  }
  // Control periods are bounded against the spec's own horizon.
  spec = parse(kTinyMixed);
  spec.fleet_policy = fleet::FleetPolicySpec{};
  spec.fleet_policy->series_window_ms = 1e-9;
  try {
    validate(spec);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "spec.fleet_policy.series_window_ms") << e.what();
  }
  // A shard is a thread: the count is bounded on both sides, in the file
  // and through --shards (which sets spec.base.shards, then validates).
  for (int shards : {-2, 0, cluster::kMaxShards + 1, 100000}) {
    spec = parse(kTinyMixed);
    spec.base.shards = shards;
    try {
      validate(spec);
      FAIL() << "expected SpecError for shards " << shards;
    } catch (const SpecError& e) {
      EXPECT_EQ(e.path(), "spec.sim.shards") << e.what();
    }
  }
  spec = parse(kTinyMixed);
  spec.base.shards = cluster::kMaxShards;
  EXPECT_NO_THROW(validate(spec));
  doc = kTinyMixed;
  doc.replace(doc.find("\"warmup_s\""), 10, "\"shards\": -2, \"warmup_s\"");
  EXPECT_THROW(validate(parse(doc)), SpecError);
}

TEST(SpecValidate, FaultTimesMustFitSimTime) {
  // Each time value used to end in an internal "schedule event in the
  // past" CHECK once converted to a SimTime; the two max_attempts cases
  // used to hang (orphans retrying at one instant, with a backoff loop as
  // long as the attempt number).
  ScenarioSpec base = parse(kTinyMixed);
  fleet::FaultSpec faults;
  fleet::FaultEvent crash;
  crash.at_s = 0.3;
  crash.device = 0;
  crash.down_s = 0.1;
  faults.events.push_back(crash);
  faults.process.mtbf_s = 1.0;
  faults.process.mttr_s = 0.5;
  base.faults = faults;
  EXPECT_EQ(path_of(base), "<no error>");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::pair<std::function<void(fleet::FaultSpec&)>, std::string>
      cases[] = {
          {[](auto& f) { f.events[0].at_s = 1e308; },
           "spec.faults.events[0].at_s"},
          {[](auto& f) { f.events[0].down_s = 1e308; },
           "spec.faults.events[0].down_s"},
          {[=](auto& f) { f.process.mtbf_s = kInf; },
           "spec.faults.process.mtbf_s"},
          {[](auto& f) { f.process.mttr_s = 1e308; },
           "spec.faults.process.mttr_s"},
          {[](auto& f) { f.process.from_s = 1e308; },
           "spec.faults.process.from_s"},
          {[](auto& f) { f.process.until_s = std::nan(""); },
           "spec.faults.process.until_s"},
          {[](auto& f) { f.failover.backoff_ms = 1e308; },
           "spec.faults.failover.backoff_ms"},
          {[=](auto& f) { f.failover.jitter_ms = kInf; },
           "spec.faults.failover.jitter_ms"},
          {[](auto& f) {
             f.failover.max_attempts = 2000000000;
             f.failover.backoff_ms = 0.0;
           },
           "spec.faults.failover.max_attempts"},
          {[](auto& f) {
             f.failover.max_attempts = 200000;
             f.failover.backoff_ms = 0.000001;
             f.failover.backoff_mult = 1.0;
           },
           "spec.faults.failover.max_attempts"},
      };
  for (const auto& [mutate, path] : cases) {
    ScenarioSpec bad = base;
    mutate(*bad.faults);
    EXPECT_EQ(path_of(bad), path);
  }
  ScenarioSpec most = base;
  most.faults->failover.max_attempts = fleet::kMaxFailoverAttempts;
  most.faults->failover.backoff_ms = 0.0;
  EXPECT_EQ(path_of(most), "<no error>");
}

TEST(SpecValidate, FaultEventDeviceMustExistInAFixedFleet) {
  // A crash aimed past the fleet used to pass validation and then do
  // nothing at run time: the runtime's crash_device refuses the index.
  const std::string doc = R"({
    "pool": { "contexts": 2, "oversubscription": 1.5 },
    "sim": { "duration_s": 0.6, "warmup_s": 0.1 },
    "fleet": { "devices": 2 },
    "tasks": [ { "name": "cam", "count": 2, "network": "lenet5", "fps": 30,
                 "stages": 3 } ],
    "faults": { "events": [ { "at_s": 0.2, "crash": 1 },
                            { "at_s": 0.4, "recover": 1 } ] }
  })";
  EXPECT_EQ(path_of(parse(doc)), "<no error>");
  std::string crash_past = doc;
  crash_past.replace(crash_past.find("\"crash\": 1"), 10, "\"crash\": 2");
  EXPECT_EQ(path_of(parse(crash_past)), "spec.faults.events[0].device");
  std::string recover_past = doc;
  recover_past.replace(recover_past.find("\"recover\": 1"), 12,
                       "\"recover\": 9");
  EXPECT_EQ(path_of(parse(recover_past)), "spec.faults.events[1].device");
  // A device list bounds the index by its length.
  std::string listed = crash_past;
  listed.replace(listed.find("\"devices\": 2"), 12,
                 "\"devices\": [\"2080ti\", \"3090\", \"2080ti\"]");
  EXPECT_EQ(path_of(parse(listed)), "<no error>");
  // An autoscaler appends device indices at run time, so an index past the
  // initial fleet stays accepted there.
  ScenarioSpec scaled = parse(crash_past);
  scaled.fleet_policy = fleet::FleetPolicySpec{};
  scaled.fleet_policy->autoscaler.kind =
      fleet::AutoscalePolicyKind::kUtilization;
  EXPECT_EQ(path_of(scaled), "<no error>");
}

TEST(SpecValidate, EveryBaseConfigRuleNamesItsField) {
  const ScenarioSpec base = parse(kTinyMixed);
  ASSERT_EQ(path_of(base), "<no error>");
  const double kNan = std::nan("");
  const std::pair<std::function<void(ScenarioConfig&)>, std::string>
      cases[] = {
          {[](auto& c) { c.num_contexts = 0; }, "spec.pool.contexts"},
          {[](auto& c) { c.num_contexts = 69; }, "spec.pool.contexts"},
          {[](auto& c) { c.oversubscription = 0.5; },
           "spec.pool.oversubscription"},
          {[=](auto& c) { c.oversubscription = kNan; },
           "spec.pool.oversubscription"},
          {[](auto& c) { c.context_sms = {34, 0}; },
           "spec.pool.context_sms[1]"},
          {[](auto& c) { c.context_sms = {100000, 34}; },
           "spec.pool.context_sms[0]"},
          {[](auto& c) { c.duration = SimTime::zero(); },
           "spec.sim.duration_s"},
          {[](auto& c) { c.warmup = c.duration; }, "spec.sim.warmup_s"},
          {[](auto& c) { c.shards = 0; }, "spec.sim.shards"},
          {[](auto& c) { c.sgprs.max_in_flight_per_task = 0; },
           "spec.sgprs.max_in_flight"},
          {[](auto& c) { c.naive.max_in_flight_per_task = 0; },
           "spec.naive.max_in_flight"},
          {[](auto& c) { c.naive.host_sync_gap = SimTime::from_ms(-5); },
           "spec.naive.host_sync_gap_ms"},
          {[](auto& c) { c.num_devices = 0; }, "spec.fleet.devices"},
          {[](auto& c) { c.admission_margin = 1.5; },
           "spec.fleet.admission_margin"},
          {[](auto& c) { c.occupancy_threshold = 0.0; },
           "spec.fleet.occupancy_threshold"},
          {[](auto& c) { c.occupancy_threshold = 1.5; },
           "spec.fleet.occupancy_threshold"},
          {[](auto& c) { c.device_mem_mb = -1.0; },
           "spec.fleet.device_mem_mb"},
          {[=](auto& c) { c.device_mem_mb = kNan; },
           "spec.fleet.device_mem_mb"},
          {[](auto& c) { c.device_mem_mb = HUGE_VAL; },
           "spec.fleet.device_mem_mb"},
          {[](auto& c) { c.device_mem_mb = 1e308; },
           "spec.fleet.device_mem_mb"},
          {[](auto& c) {
             c.device_mem_mb =
                 static_cast<double>(kMaxDeviceMemBytes >> 20) + 1.0;
           },
           "spec.fleet.device_mem_mb"},
      };
  for (const auto& [mutate, path] : cases) {
    ScenarioSpec bad = base;
    mutate(bad.base);
    EXPECT_EQ(path_of(bad), path);
  }
  // An explicit device list stands in for the device count, and explicit
  // SGPRS context sizes for the context count.
  ScenarioSpec ok = base;
  ok.base.num_devices = 0;
  ok.base.fleet = {gpu::rtx3090()};
  EXPECT_EQ(path_of(ok), "<no error>");
  ok = base;
  ok.base.num_contexts = 0;
  ok.base.context_sms = {68, 34};
  EXPECT_EQ(path_of(ok), "<no error>");
  // The device-memory bound itself is accepted.
  ok = base;
  ok.base.device_mem_mb = static_cast<double>(kMaxDeviceMemBytes >> 20);
  EXPECT_EQ(path_of(ok), "<no error>");
}

TEST(SpecValidate, HostileNaiveAndPoolValuesNameTheirField) {
  // Each used to die in an internal CHECK or run silently as a 0 ms gap.
  const auto doc_path = [](const std::string& json) {
    try {
      return path_of(parse(json));  // parse rejects out-of-range times
    } catch (const SpecError& e) {
      return e.path();
    }
  };
  const auto naive = [](const std::string& section) {
    return R"({ "scheduler": "naive", "naive": )" + section +
           R"(, "tasks": [ { "count": 2 } ] })";
  };
  EXPECT_EQ(doc_path(naive(R"({ "max_in_flight": 0 })")),
            "spec.naive.max_in_flight");
  for (const char* gap : {"1e30", "1e308", "-5"}) {
    EXPECT_EQ(doc_path(naive(std::string(R"({ "host_sync_gap_ms": )") + gap +
                             " }")),
              "spec.naive.host_sync_gap_ms")
        << gap;
  }
  EXPECT_EQ(doc_path(naive(R"({ "host_sync_gap_ms": 0 })")), "<no error>");
  EXPECT_EQ(doc_path(R"({ "pool": { "context_sms": [100000, 34] },
                          "tasks": [ { "count": 2 } ] })"),
            "spec.pool.context_sms[0]");
}

TEST(SpecLower, SumsReplicaCounts) {
  const auto spec = parse(kTinyMixed);
  EXPECT_EQ(task_builder_for(spec)(lower(spec), {51}).size(), 3u);

  const auto gen = parse(R"({
    "generator": { "count": 5, "total_utilization": 1.0 }
  })");
  EXPECT_EQ(task_builder_for(gen)(lower(gen), {51}).size(), 5u);
}

TEST(SpecBuilder, HeterogeneousTaskSet) {
  const auto spec = parse(kTinyMixed);
  const auto cfg = lower(spec);
  const auto tasks = task_builder_for(spec)(cfg, {51});
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(tasks[0].name, "cam0");
  EXPECT_EQ(tasks[1].name, "cam1");
  EXPECT_EQ(tasks[2].name, "tiny2");
  EXPECT_EQ(tasks[0].id, 0);
  EXPECT_EQ(tasks[2].id, 2);
  EXPECT_EQ(tasks[0].period, SimTime::from_sec(1.0 / 30.0));
  EXPECT_EQ(tasks[2].period, SimTime::from_sec(1.0 / 60.0));
  EXPECT_EQ(tasks[0].stage_count(), 3);
  EXPECT_EQ(tasks[2].stage_count(), 2);
}

TEST(SpecBuilder, SporadicFieldsAndWorstCasePeriod) {
  const auto spec = parse(R"({
    "tasks": [ { "count": 1, "network": "lenet5", "stages": 2,
                 "arrival": "sporadic", "min_separation_ms": 20,
                 "max_separation_ms": 50 } ]
  })");
  const auto tasks = task_builder_for(spec)(lower(spec), {51});
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].arrival, rt::ArrivalModel::kSporadic);
  EXPECT_EQ(tasks[0].min_separation, SimTime::from_ms(20));
  EXPECT_EQ(tasks[0].max_separation, SimTime::from_ms(50));
  // Built at the worst-case rate: period == min_separation, so admission
  // and utilization math stay conservative.
  EXPECT_EQ(tasks[0].period, SimTime::from_ms(20));
}

TEST(SpecBuilder, TaskEntryAndTemplateBuildTheSameTask) {
  // One sporadic shape with every field set, once as a task entry and once
  // as a churn template. Only id, name and phase may differ.
  const auto spec = parse(R"({
    "sim": { "jitter_phases": true },
    "tasks": [ { "name": "cam", "count": 2, "network": "lenet5", "stages": 3,
                 "deadline_ms": 40, "priority": "all_high",
                 "arrival": "sporadic", "min_separation_ms": 25,
                 "max_separation_ms": 70, "tier": 2, "mem_mb": 300,
                 "warps": 96 } ],
    "timeline": { "templates": [
      { "name": "cam_t", "network": "lenet5", "stages": 3, "deadline_ms": 40,
        "priority": "all_high", "arrival": "sporadic",
        "min_separation_ms": 25, "max_separation_ms": 70, "tier": 2,
        "phase_ms": 5, "mem_mb": 300, "warps": 96 } ] }
  })");
  validate(spec);
  const std::vector<int> pools = {34, 51};
  const auto entries = task_builder_for(spec)(lower(spec), pools);
  const rt::Task tmpl = fleet::build_stream_task(spec.timeline->templates[0],
                                                 spec.base.device, pools);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(tmpl.phase, SimTime::from_ms(5));
  for (const rt::Task& t : entries) {
    EXPECT_EQ(t.network->name(), tmpl.network->name());
    EXPECT_EQ(t.period, tmpl.period);
    EXPECT_EQ(t.period, SimTime::from_ms(25)) << "worst-case rate";
    EXPECT_EQ(t.deadline, tmpl.deadline);
    EXPECT_EQ(t.arrival, tmpl.arrival);
    EXPECT_EQ(t.min_separation, tmpl.min_separation);
    EXPECT_EQ(t.max_separation, tmpl.max_separation);
    EXPECT_EQ(t.mem_bytes, tmpl.mem_bytes);
    EXPECT_EQ(t.mem_bytes, 300LL * 1048576);
    EXPECT_EQ(t.warps, tmpl.warps);
    EXPECT_EQ(t.warps, 96);
    ASSERT_EQ(t.stage_count(), tmpl.stage_count());
    for (int i = 0; i < t.stage_count(); ++i) {
      EXPECT_EQ(t.stages()[i].nodes, tmpl.stages()[i].nodes);
      EXPECT_EQ(t.stages()[i].base_priority, tmpl.stages()[i].base_priority);
      EXPECT_EQ(t.stages()[i].virtual_deadline_offset,
                tmpl.stages()[i].virtual_deadline_offset);
    }
    EXPECT_EQ(t.wcet().sm_sizes, tmpl.wcet().sm_sizes);
    EXPECT_EQ(t.wcet().stage_times, tmpl.wcet().stage_times);
    EXPECT_EQ(t.wcet().totals, tmpl.wcet().totals);
  }
  // The entry's replicas are clones of one prototype: one shared class.
  EXPECT_EQ(entries[0].task_class, entries[1].task_class);
  EXPECT_EQ(entries[1].id, 1);
  EXPECT_EQ(entries[1].name, "cam1");
}

TEST(SpecRun, HeterogeneousSpecRuns) {
  const auto r = run_spec(parse(kTinyMixed));
  EXPECT_FALSE(r.fleet);
  EXPECT_EQ(r.single.per_task.size(), 3u);
  EXPECT_GT(r.fps(), 0.0);
  EXPECT_DOUBLE_EQ(r.dmr(), 0.0) << "tiny networks at low load";
}

TEST(SpecRun, SporadicSpecRunsAndIsDeterministic) {
  const char* kSporadic = R"({
    "pool": { "contexts": 2 },
    "sim": { "duration_s": 0.8, "warmup_s": 0.1 },
    "tasks": [
      { "name": "burst", "count": 3, "network": "lenet5",
        "stages": 2, "arrival": "sporadic", "min_separation_ms": 16.7,
        "max_separation_ms": 60 }
    ]
  })";
  const auto a = run_spec(parse(kSporadic));
  const auto b = run_spec(parse(kSporadic));
  EXPECT_GT(a.releases(), 0);
  EXPECT_EQ(a.releases(), b.releases());
  EXPECT_DOUBLE_EQ(a.fps(), b.fps());
  // The scenario seed must reach the sporadic arrival rngs: a different
  // seed samples a different arrival realization.
  auto reseeded = parse(kSporadic);
  reseeded.base.seed = 12345;
  const auto c = run_spec(reseeded);
  EXPECT_NE(std::make_pair(c.releases(), c.fps()),
            std::make_pair(a.releases(), a.fps()));
  // Sporadic spacing only stretches inter-arrivals, so the release count
  // stays below the periodic ceiling at the same min separation.
  EXPECT_LT(a.releases(), static_cast<std::int64_t>(3 * 0.8 / 0.0167) + 3);
}

TEST(SpecRun, GeneratorSpecRuns) {
  const auto r = run_spec(parse(R"({
    "pool": { "contexts": 2, "oversubscription": 1.5 },
    "sim": { "duration_s": 0.6, "warmup_s": 0.1 },
    "generator": { "count": 4, "total_utilization": 0.8,
                   "networks": ["lenet5", "mlp3"], "stages": 2, "seed": 3 }
  })"));
  EXPECT_EQ(r.single.per_task.size(), 4u);
  EXPECT_GT(r.fps(), 0.0);
}

TEST(SpecRun, TaskReleasingPastHorizonReportsZeroSnapshot) {
  // At 0.3 fps the seeded phases spread over a 3.3 s period, so some of the
  // 16 streams never release within the 2 s run. Each still gets a row.
  auto spec = load_scenario_spec(std::string(SGPRS_SOURCE_DIR) +
                                 "/scenarios/paper_scenario1.json");
  spec.tasks[0].fps = 0.3;
  SpecResult r;
  ASSERT_NO_THROW(r = run_spec(spec));
  ASSERT_EQ(r.single.per_task.size(), 16u);
  int silent = 0;
  std::int64_t released = 0;
  for (const auto& t : r.single.per_task) {
    if (t.counts.released == 0) {
      ++silent;
      EXPECT_EQ(t.fps, 0.0);
      EXPECT_EQ(t.dmr, 0.0);
    }
    released += t.counts.released;
  }
  EXPECT_GT(silent, 0);
  EXPECT_EQ(released, r.aggregate().counts.released);
}

TEST(SpecRun, FleetSpecRuns) {
  const auto r = run_spec(parse(R"({
    "pool": { "contexts": 2 },
    "sim": { "duration_s": 0.6, "warmup_s": 0.1 },
    "fleet": { "devices": 2, "placement": "roundrobin" },
    "tasks": [ { "count": 4, "network": "lenet5", "fps": 30, "stages": 3 } ]
  })"));
  EXPECT_TRUE(r.fleet);
  EXPECT_EQ(r.cluster.fleet.devices.size(), 2u);
  EXPECT_EQ(r.cluster.fleet.tasks_assigned, 4);
  EXPECT_GT(r.fps(), 0.0);
}

TEST(SpecPin, CuratedLibraryParsesAndValidates) {
  const std::string dir = std::string(SGPRS_SOURCE_DIR) + "/scenarios";
  for (const char* name :
       {"paper_scenario1", "paper_scenario2", "naive_baseline",
        "multi_tenant_mixed", "sporadic_bursts", "heterogeneous_fleet",
        "overload_admission", "uunifast_capacity",
        "constrained_deadlines"}) {
    EXPECT_NO_THROW(load_scenario_spec(dir + "/" + name + ".json")) << name;
  }
}

TEST(SpecLoad, MalformedFileErrors) {
  const std::string path = testing::TempDir() + "sgprs_bad_spec.json";
  {
    std::ofstream out(path);
    out << "{ \"tasks\": [ { \"fps\": 30 }, ] }";  // trailing comma
  }
  EXPECT_THROW(load_scenario_spec(path), common::JsonError);
  {
    std::ofstream out(path);
    out << "{ \"tasks\": [ { \"fps\": -1 } ] }";
  }
  EXPECT_THROW(load_scenario_spec(path), SpecError);
  EXPECT_THROW(load_scenario_spec("/nonexistent/nope.json"),
               common::JsonError);
}

}  // namespace
}  // namespace sgprs::workload
