// Behavioral tests of the online fleet runtime: churn driver, autoscaler
// (warm-up, drain, re-placement), and the overload controller (shedding,
// admission rejection, QoS downgrade). Specs are built in code so each
// test pins one mechanism with a minimal world.
#include <gtest/gtest.h>

#include <algorithm>

#include "workload/spec.hpp"

namespace sgprs::fleet {
namespace {

using workload::ScenarioSpec;
using workload::TaskEntrySpec;

/// Base world: one 2-context SGPRS device behind the placer.
ScenarioSpec base_spec(double duration_s = 1.2) {
  ScenarioSpec spec;
  spec.name = "fleet_test";
  spec.base.num_contexts = 2;
  spec.base.oversubscription = 1.5;
  spec.base.duration = common::SimTime::from_sec(duration_s);
  spec.base.warmup = common::SimTime::from_sec(0.1);
  spec.base.seed = 42;
  spec.base.admission_margin = 0.9;
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

StreamTemplate tmpl(const std::string& name, int tier = 1,
                    double fps = 30.0) {
  StreamTemplate t;
  t.name = name;
  t.tier = tier;
  t.fps = fps;
  return t;
}

int count_decisions(const FleetRunResult& r, DecisionKind kind) {
  return static_cast<int>(
      std::count_if(r.decisions.begin(), r.decisions.end(),
                    [kind](const FleetDecision& d) {
                      return d.kind == kind;
                    }));
}

TEST(FleetRuntimeTest, ScriptedChurnAdmitsAndRetires) {
  ScenarioSpec spec = base_spec();
  spec.tasks.push_back(entry("cam", 2));
  TimelineSpec tl;
  tl.templates.push_back(tmpl("extra"));
  TimelineEvent admit;
  admit.kind = TimelineEvent::Kind::kAdmit;
  admit.target = "extra";
  admit.count = 3;
  admit.at_s = 0.3;
  tl.events.push_back(admit);
  TimelineEvent retire;
  retire.kind = TimelineEvent::Kind::kRetire;
  retire.target = "extra";
  retire.count = 2;
  retire.at_s = 0.7;
  tl.events.push_back(retire);
  spec.timeline = tl;
  workload::validate(spec);

  const FleetRunResult r = workload::run_spec(spec).dyn;
  EXPECT_EQ(r.streams_admitted, 5);  // 2 initial + 3 scripted
  EXPECT_EQ(r.streams_retired, 2);
  EXPECT_EQ(r.streams_rejected, 0);
  EXPECT_EQ(count_decisions(r, DecisionKind::kStreamAdmitted), 3);
  EXPECT_EQ(count_decisions(r, DecisionKind::kStreamRetired), 2);
  EXPECT_GT(r.releases, 0);
  EXPECT_FALSE(r.series.samples.empty());
  // Live streams visible in the series: 2 before 0.3 s, 5 in (0.3, 0.7].
  const auto& samples = r.series.samples;
  EXPECT_EQ(samples.front().streams_live, 2);
  // (The 0.7 s sample fires after the retire event scheduled at setup, so
  // the window with 5 live streams is [0.4, 0.7) in sample time.)
  for (const auto& s : samples) {
    if (s.t > common::SimTime::from_sec(0.35) &&
        s.t < common::SimTime::from_sec(0.7)) {
      EXPECT_EQ(s.streams_live, 5) << "at " << s.t.to_sec();
    }
  }
  EXPECT_EQ(samples.back().streams_live, 3);
}

TEST(FleetRuntimeTest, PoissonArrivalsRespectWindowAndLifetime) {
  ScenarioSpec spec = base_spec(1.5);
  TimelineSpec tl;
  tl.seed = 3;
  tl.templates.push_back(tmpl("burst"));
  ArrivalProcess a;
  a.tmpl = "burst";
  a.rate_per_s = 20.0;
  a.lifetime_min_s = 0.2;
  a.lifetime_max_s = 0.4;
  a.from_s = 0.2;
  a.until_s = 0.8;
  tl.arrivals.push_back(a);
  spec.timeline = tl;
  workload::validate(spec);

  const FleetRunResult r = workload::run_spec(spec).dyn;
  // ~12 expected arrivals in the 0.6 s window; all leave within 0.4 s.
  EXPECT_GT(r.streams_admitted, 3);
  EXPECT_GT(r.streams_retired, 0);
  // Before the window opens, nothing is live; at the horizon every stream
  // has outlived its bounded lifetime (0.8 + 0.4 < 1.5).
  EXPECT_EQ(r.series.samples.front().streams_live, 0);
  EXPECT_EQ(r.series.samples.back().streams_live, 0);
}

TEST(FleetRuntimeTest, AutoscalerScalesUpWarmsUpAndDrainsDown) {
  ScenarioSpec spec = base_spec(2.2);
  spec.tasks.push_back(entry("cam", 4));
  TimelineSpec tl;
  tl.templates.push_back(tmpl("wave"));
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

  const FleetRunResult r = workload::run_spec(spec).dyn;
  EXPECT_GE(r.scale_ups, 1);
  EXPECT_GE(r.scale_downs, 1);
  EXPECT_EQ(r.peak_devices, 2);
  EXPECT_EQ(r.final_devices, 1);
  EXPECT_GE(count_decisions(r, DecisionKind::kScaleUp), 1);
  EXPECT_GE(count_decisions(r, DecisionKind::kDeviceActive), 1);
  EXPECT_GE(count_decisions(r, DecisionKind::kScaleDown), 1);
  // Warm-up ordering: the device activates strictly after its scale-up.
  const auto up = std::find_if(r.decisions.begin(), r.decisions.end(),
                               [](const FleetDecision& d) {
                                 return d.kind == DecisionKind::kScaleUp;
                               });
  const auto active = std::find_if(r.decisions.begin(), r.decisions.end(),
                                   [](const FleetDecision& d) {
                                     return d.kind ==
                                            DecisionKind::kDeviceActive;
                                   });
  ASSERT_NE(up, r.decisions.end());
  ASSERT_NE(active, r.decisions.end());
  EXPECT_EQ(active->at - up->at, common::SimTime::from_ms(100.0));
  // The drained device retires once its in-flight jobs complete.
  EXPECT_GE(count_decisions(r, DecisionKind::kDeviceRetired), 1);
}

TEST(FleetRuntimeTest, PrioritySheddingProtectsTierZero) {
  ScenarioSpec spec = base_spec(1.2);
  spec.tasks.push_back(entry("base", 2, /*tier=*/0));
  TimelineSpec tl;
  tl.templates.push_back(tmpl("extra", /*tier=*/2));
  TimelineEvent admit;
  admit.kind = TimelineEvent::Kind::kAdmit;
  admit.target = "extra";
  admit.count = 10;
  admit.at_s = 0.2;
  tl.events.push_back(admit);
  spec.timeline = tl;
  FleetPolicySpec policy;
  policy.overload.shed = ShedMode::kPriority;
  policy.overload.queue_limit = 2;
  spec.fleet_policy = policy;
  workload::validate(spec);

  const FleetRunResult r = workload::run_spec(spec).dyn;
  EXPECT_GT(r.jobs_shed, 0);
  // Tier 0 streams are the two initial tasks (ids 0 and 1): never shed.
  for (const auto& d : r.decisions) {
    if (d.kind == DecisionKind::kJobShed) {
      EXPECT_GE(d.task_id, 2) << "tier-0 stream was shed";
    }
  }
  // The series carries the cumulative shed counter.
  EXPECT_EQ(r.series.samples.back().jobs_shed_cum, r.jobs_shed);
}

TEST(FleetRuntimeTest, AdmissionRejectsAndQosDowngradeRecovers) {
  // Fill one device close to its admission budget, then offer a heavy
  // stream: full rate must be rejected, the fps_scale retry must fit.
  ScenarioSpec spec = base_spec(1.2);
  spec.tasks.push_back(entry("base", 16));
  TimelineSpec tl;
  tl.templates.push_back(tmpl("heavy", /*tier=*/1, /*fps=*/120.0));
  TimelineEvent admit;
  admit.kind = TimelineEvent::Kind::kAdmit;
  admit.target = "heavy";
  admit.count = 4;
  admit.at_s = 0.3;
  tl.events.push_back(admit);
  spec.timeline = tl;
  FleetPolicySpec policy;
  policy.overload.admission_test = true;
  policy.overload.fps_scale = 0.1;
  spec.fleet_policy = policy;
  workload::validate(spec);

  const FleetRunResult r = workload::run_spec(spec).dyn;
  // Every heavy stream either got downgraded or rejected — none admitted
  // at full rate into a near-full device.
  EXPECT_EQ(r.streams_downgraded + r.streams_rejected, 4);
  EXPECT_GE(r.streams_downgraded, 1)
      << "the 12 fps downgrade should fit the admission gap";
  EXPECT_EQ(count_decisions(r, DecisionKind::kStreamDowngraded),
            static_cast<int>(r.streams_downgraded));
}

TEST(FleetRuntimeTest, StaticSpecKeepsClosedWorldPath) {
  ScenarioSpec spec = base_spec();
  spec.tasks.push_back(entry("cam", 4));
  workload::validate(spec);
  const auto r = workload::run_spec(spec);
  EXPECT_FALSE(r.dynamic);
  EXPECT_TRUE(r.fleet);

  ScenarioSpec dyn = base_spec();
  dyn.tasks.push_back(entry("cam", 4));
  dyn.fleet_policy = FleetPolicySpec{};  // policy alone routes dynamic
  workload::validate(dyn);
  const auto rd = workload::run_spec(dyn);
  EXPECT_TRUE(rd.dynamic);
  EXPECT_FALSE(rd.dyn.series.samples.empty());
  // Same world, no churn: the aggregate workload matches the static run.
  EXPECT_EQ(rd.dyn.releases, r.cluster.releases);
  EXPECT_DOUBLE_EQ(rd.dyn.fleet.fleet.fps, r.cluster.fleet.fleet.fps);
}

TEST(FleetRuntimeTest, DynamicSpecWithoutFleetSectionKeepsAdmission) {
  // Only a spec with no fleet, timeline, policy or faults section runs
  // with admission off. A policy alone keeps the placer's admission test
  // on the one device.
  ScenarioSpec spec = base_spec(0.4);
  spec.fleet_mode = false;
  spec.tasks.push_back(entry("cam", 40));  // past one device's budget
  spec.fleet_policy = FleetPolicySpec{};
  workload::validate(spec);
  const auto dyn = workload::run_spec(spec);
  ASSERT_TRUE(dyn.dynamic);
  EXPECT_GT(dyn.dyn.streams_rejected, 0);
  EXPECT_EQ(dyn.dyn.fleet.tasks_assigned + dyn.dyn.streams_rejected, 40);
  EXPECT_EQ(count_decisions(dyn.dyn, DecisionKind::kStreamRejected),
            static_cast<int>(dyn.dyn.streams_rejected));

  spec.fleet_policy.reset();  // closed-world: every task is placed
  workload::validate(spec);
  const auto closed = workload::run_spec(spec);
  ASSERT_FALSE(closed.dynamic || closed.fleet);
  EXPECT_EQ(closed.single.per_task.size(), 40u);
}

}  // namespace
}  // namespace sgprs::fleet
