// Fault injection / failover behavior pins (docs/faults.md): scripted
// crashes abort in-flight jobs and fail streams over, recovery re-admits
// parked orphans, a crash during an active drain releases placer
// accounting exactly once, and a ~200-seed sweep of the stochastic
// MTBF/MTTR process holds the structural invariants (availability in
// [0, 1], no live stream on a failed device, counter consistency), and
// delays too long for a SimTime fall past the horizon.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "workload/spec.hpp"

namespace sgprs::fleet {
namespace {

using workload::ScenarioSpec;
using workload::TaskEntrySpec;

ScenarioSpec base_spec(int devices, double duration_s = 1.2) {
  ScenarioSpec spec;
  spec.name = "fault_test";
  spec.base.num_contexts = 2;
  spec.base.oversubscription = 1.5;
  spec.base.duration = common::SimTime::from_sec(duration_s);
  spec.base.warmup = common::SimTime::from_sec(0.1);
  spec.base.seed = 42;
  spec.base.admission_margin = 0.9;
  spec.base.num_devices = devices;
  spec.fleet_mode = true;
  return spec;
}

TaskEntrySpec entry(const std::string& name, int count, int tier = 0,
                    double fps = 30.0) {
  TaskEntrySpec e;
  e.name = name;
  e.count = count;
  e.tier = tier;
  e.fps = fps;
  return e;
}

int count_decisions(const FleetRunResult& r, DecisionKind kind) {
  return static_cast<int>(
      std::count_if(r.decisions.begin(), r.decisions.end(),
                    [kind](const FleetDecision& d) {
                      return d.kind == kind;
                    }));
}

TEST(FaultTest, ScriptedCrashAbortsJobsAndFailsOverStreams) {
  ScenarioSpec spec = base_spec(2);
  spec.tasks.push_back(entry("cam", 6));
  FaultSpec faults;
  faults.seed = 7;
  FaultEvent crash;
  crash.kind = FaultEvent::Kind::kCrash;
  // Off the control grid (docs/faults.md) and inside a dispatched job's
  // execution window for this seed, so the instant kill catches work.
  crash.at_s = 0.5325;
  crash.device = 1;
  crash.down_s = 0.4;
  faults.events.push_back(crash);
  spec.faults = faults;
  workload::validate(spec);

  const FleetRunResult r = workload::run_spec(spec).dyn;
  EXPECT_EQ(r.devices_failed, 1);
  EXPECT_EQ(r.devices_recovered, 1);
  EXPECT_EQ(count_decisions(r, DecisionKind::kDeviceFailed), 1);
  EXPECT_EQ(count_decisions(r, DecisionKind::kDeviceRecovered), 1);
  // Half the fleet hosted streams; the crash displaced them and the
  // failover engine found them new homes (possibly after retries).
  EXPECT_GT(r.failovers + r.streams_lost, 0);
  EXPECT_GE(count_decisions(r, DecisionKind::kStreamFailedOver),
            static_cast<int>(r.failovers > 0));
  // A 30 fps stream keeps a device busy: the instant kill caught work.
  EXPECT_GT(r.jobs_faulted, 0);
  // Faulted jobs never close in the collector, so they are outside the
  // deadline-miss accounting entirely.
  EXPECT_GE(r.releases, r.jobs_faulted);
  // The recovery ordering holds: failed before recovered.
  const auto fail = std::find_if(r.decisions.begin(), r.decisions.end(),
                                 [](const FleetDecision& d) {
                                   return d.kind == DecisionKind::kDeviceFailed;
                                 });
  const auto rec = std::find_if(r.decisions.begin(), r.decisions.end(),
                                [](const FleetDecision& d) {
                                  return d.kind ==
                                         DecisionKind::kDeviceRecovered;
                                });
  ASSERT_NE(fail, r.decisions.end());
  ASSERT_NE(rec, r.decisions.end());
  EXPECT_EQ(rec->at - fail->at, common::SimTime::from_sec(0.4));
}

TEST(FaultTest, CrashDuringActiveDrainReleasesAccountingOnce) {
  // Build a world where the autoscaler drains a device, find the drain
  // instant from a clean run's audit trail, then crash the draining victim
  // mid-drain. Regression: the crash must tear the drain down without
  // retiring the device's placer accounting a second time (a double-free
  // used to trip the placer's checks and abort the run).
  ScenarioSpec spec = base_spec(1, 2.2);
  spec.tasks.push_back(entry("cam", 4));
  TimelineSpec tl;
  StreamTemplate wave;
  wave.name = "wave";
  wave.tier = 1;
  tl.templates.push_back(wave);
  TimelineEvent ramp;
  ramp.kind = TimelineEvent::Kind::kAdmit;
  ramp.target = "wave";
  ramp.count = 10;
  ramp.at_s = 0.2;
  tl.events.push_back(ramp);
  TimelineEvent fall;
  fall.kind = TimelineEvent::Kind::kRetire;
  fall.target = "wave";
  fall.count = 10;
  fall.at_s = 1.2;
  tl.events.push_back(fall);
  spec.timeline = tl;
  FleetPolicySpec policy;
  policy.autoscaler.kind = AutoscalePolicyKind::kUtilization;
  policy.autoscaler.min_devices = 1;
  policy.autoscaler.max_devices = 2;
  policy.autoscaler.scale_up_threshold = 0.6;
  policy.autoscaler.scale_down_threshold = 0.35;
  policy.autoscaler.tick_ms = 50.0;
  policy.autoscaler.warmup_ms = 100.0;
  policy.autoscaler.cooldown_ms = 150.0;
  spec.fleet_policy = policy;
  workload::validate(spec);

  const FleetRunResult clean = workload::run_spec(spec).dyn;
  const auto down = std::find_if(clean.decisions.begin(),
                                 clean.decisions.end(),
                                 [](const FleetDecision& d) {
                                   return d.kind == DecisionKind::kScaleDown;
                                 });
  ASSERT_NE(down, clean.decisions.end());
  ASSERT_GE(count_decisions(clean, DecisionKind::kDeviceRetired), 1);

  // The drain lives at least until the next autoscale tick (50 ms):
  // 13 ms after the scale-down lands inside the draining window, off any
  // control instant.
  FaultSpec faults;
  faults.seed = 7;
  FaultEvent crash;
  crash.kind = FaultEvent::Kind::kCrash;
  crash.at_s = down->at.to_sec() + 0.013;
  crash.device = down->device;
  faults.events.push_back(crash);
  spec.faults = faults;
  // End shortly after the crash: any kDeviceRetired in this run could only
  // come from the torn-down drain (later autoscale cycles would retire
  // devices legitimately and muddy the signal).
  spec.base.duration = down->at + common::SimTime::from_sec(0.2);
  workload::validate(spec);

  const FleetRunResult r = workload::run_spec(spec).dyn;  // must not abort
  EXPECT_EQ(r.devices_failed, 1);
  EXPECT_EQ(count_decisions(r, DecisionKind::kDeviceFailed), 1);
  // The crash superseded the drain: the victim never reads as cleanly
  // retired (crash_device tore the drain down exactly once).
  EXPECT_EQ(count_decisions(r, DecisionKind::kDeviceRetired), 0);
  // The device stayed down (no recovery scheduled), so the run ends on
  // the surviving fleet core.
  EXPECT_EQ(r.devices_recovered, 0);
  EXPECT_EQ(r.final_devices, 1);
}

TEST(FaultTest, RecoveryReadmitsParkedOrphans) {
  // A 1-device fleet loses its only device: every stream orphans, parks
  // after the retry budget, and re-homes when the device recovers.
  ScenarioSpec spec = base_spec(1, 1.6);
  spec.tasks.push_back(entry("cam", 3));
  FaultSpec faults;
  faults.seed = 11;
  FaultEvent crash;
  crash.kind = FaultEvent::Kind::kCrash;
  crash.at_s = 0.53;
  crash.device = 0;
  faults.events.push_back(crash);
  FaultEvent recover;
  recover.kind = FaultEvent::Kind::kRecover;
  recover.at_s = 1.03;
  recover.device = 0;
  faults.events.push_back(recover);
  faults.failover.max_attempts = 2;
  faults.failover.backoff_ms = 30.0;
  faults.failover.park = true;
  spec.faults = faults;
  workload::validate(spec);

  const FleetRunResult r = workload::run_spec(spec).dyn;
  EXPECT_EQ(count_decisions(r, DecisionKind::kStreamOrphaned), 3);
  // Nothing fit while the fleet was empty; recovery re-placed all three.
  EXPECT_EQ(r.failovers, 3);
  EXPECT_EQ(r.streams_lost, 0);
  EXPECT_GT(r.failover_retries, 0);
  // Each stream was down from the crash to the recovery instant.
  EXPECT_NEAR(r.unavailability_s, 3 * 0.5, 1e-9);
  EXPECT_NEAR(r.recovery_p99_s, 0.5, 1e-9);
}

/// Decision-stream replay: tracks every live stream's home device and the
/// set of failed devices, asserting that between control instants no live
/// stream maps to a failed device (the crash-instant batch records at one
/// timestamp, so the invariant is checked at time boundaries).
void check_no_stream_on_failed_device(const FleetRunResult& r) {
  std::map<int, int> home;        // task id -> device
  std::set<int> down;             // failed devices
  common::SimTime prev = common::SimTime::from_ns(-1);
  const auto verify = [&] {
    for (const auto& [id, dev] : home) {
      EXPECT_FALSE(down.count(dev))
          << "stream " << id << " live on failed device " << dev;
    }
  };
  for (const auto& d : r.decisions) {
    if (d.at != prev) {
      verify();
      prev = d.at;
    }
    switch (d.kind) {
      case DecisionKind::kStreamAdmitted:
      case DecisionKind::kStreamDowngraded:
      case DecisionKind::kStreamReplaced:
      case DecisionKind::kStreamFailedOver:
        home[d.task_id] = d.device;
        break;
      case DecisionKind::kStreamRetired:
      case DecisionKind::kStreamDropped:
      case DecisionKind::kStreamOrphaned:
        home.erase(d.task_id);
        break;
      case DecisionKind::kDeviceFailed:
        down.insert(d.device);
        break;
      case DecisionKind::kDeviceRecovered:
        down.erase(d.device);
        break;
      default:
        break;
    }
  }
  verify();
}

TEST(FaultTest, DelaysPastSimTimeRangeLandPastTheHorizon) {
  // In-range fault parameters can still draw, or add up to, delays too
  // long for a SimTime: the exponential tail of a 9e9 s MTBF/MTTR, a
  // recovery 9.2e9 s after a crash, a backoff plus jitter near the limit.
  // Those events must fall past the horizon, not overflow into the past.
  ScenarioSpec spec = base_spec(16, 0.5);
  spec.tasks.push_back(entry("cam", 8));
  FaultSpec faults;
  faults.seed = 3;
  faults.process.mtbf_s = 9e9;
  faults.process.mttr_s = 9e9;
  FaultEvent outage;
  outage.at_s = 0.2;
  outage.count = 16;
  outage.down_s = 9.2e9;
  faults.events.push_back(outage);
  faults.failover.backoff_ms = 9e12;
  faults.failover.jitter_ms = 9e12;
  spec.faults = faults;
  workload::validate(spec);
  const FleetRunResult r = workload::run_spec(spec).dyn;
  EXPECT_EQ(r.devices_failed, 16);
  EXPECT_EQ(r.devices_recovered, 0);
}

TEST(FaultTest, StochasticFaultSweepHoldsInvariants) {
  // ~200 seeds of a small flaky fleet: the structural invariants must
  // hold for every realization of the MTBF/MTTR process, not just the
  // curated scenarios.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    ScenarioSpec spec = base_spec(2, 0.8);
    spec.base.seed = seed;
    spec.tasks.push_back(entry("cam", 4));
    FaultSpec faults;
    faults.seed = seed * 31 + 1;
    faults.process.mtbf_s = 0.35;
    faults.process.mttr_s = 0.15;
    faults.process.from_s = 0.15;
    faults.failover.max_attempts = 2;
    faults.failover.backoff_ms = 20.0;
    faults.failover.park = true;
    spec.faults = faults;
    workload::validate(spec);

    const FleetRunResult r = workload::run_spec(spec).dyn;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    for (const auto& s : r.series.samples) {
      EXPECT_GE(s.availability, 0.0);
      EXPECT_LE(s.availability, 1.0);
      EXPECT_GE(s.devices_failed, 0);
      EXPECT_GE(s.orphaned_streams, 0);
    }
    EXPECT_LE(r.devices_recovered, r.devices_failed);
    EXPECT_LE(r.streams_lost, r.streams_retired);
    EXPECT_GE(r.unavailability_s, 0.0);
    EXPECT_LE(r.recovery_p50_s, r.recovery_p99_s + 1e-12);
    // Streams are conserved: every admitted stream is still live, was
    // retired (incl. lost + horizon orphans), and never both.
    EXPECT_GE(r.streams_admitted, r.streams_retired);
    check_no_stream_on_failed_device(r);
  }
}

}  // namespace
}  // namespace sgprs::fleet
