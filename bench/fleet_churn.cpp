// bench_fleet_churn — throughput of the online fleet runtime under heavy
// stream churn, autoscaling and overload control, against the closed-world
// cluster path serving a comparable steady load.
//
// Two runs, both Release, both measured with the process-local steady
// clock after a warm-up run:
//   * churn: a 1→3-device autoscaled fleet with a scripted admission wave
//     plus an aggressive Poisson arrival process (hundreds of add_task /
//     generation-tagged retire cycles, re-placements and drain probes);
//   * static: the same base device/pool serving a fixed task set sized to
//     the churn run's mean live-stream count.
// Reports BENCH_fleet.json (schema: docs/benchmarks.md). Trajectory data,
// not a gate: the interesting number is control-plane overhead — sim
// events per wall second under churn vs. the closed world.
#include <chrono>
#include <iostream>

#include "figure_common.hpp"
#include "workload/spec.hpp"

namespace {

using namespace sgprs;

workload::ScenarioSpec churn_spec() {
  workload::ScenarioSpec spec;
  spec.name = "bench_fleet_churn";
  spec.base.num_contexts = 2;
  spec.base.oversubscription = 1.5;
  spec.base.duration = common::SimTime::from_sec(2.0);
  spec.base.warmup = common::SimTime::from_sec(0.2);
  spec.base.seed = 42;
  spec.base.admission_margin = 0.9;
  spec.fleet_mode = true;

  workload::TaskEntrySpec base_tasks;
  base_tasks.name = "cam";
  base_tasks.count = 6;
  spec.tasks.push_back(base_tasks);

  fleet::TimelineSpec timeline;
  timeline.seed = 7;
  fleet::StreamTemplate tmpl;
  tmpl.name = "burst";
  tmpl.tier = 1;
  timeline.templates.push_back(tmpl);
  fleet::TimelineEvent wave;
  wave.kind = fleet::TimelineEvent::Kind::kAdmit;
  wave.target = "burst";
  wave.count = 2;
  wave.every_s = 0.1;
  wave.from_s = 0.1;
  wave.until_s = 1.0;
  timeline.events.push_back(wave);
  fleet::ArrivalProcess arrivals;
  arrivals.tmpl = "burst";
  arrivals.rate_per_s = 80.0;
  arrivals.lifetime_min_s = 0.2;
  arrivals.lifetime_max_s = 0.5;
  timeline.arrivals.push_back(arrivals);
  spec.timeline = std::move(timeline);

  fleet::FleetPolicySpec policy;
  policy.autoscaler.kind = fleet::AutoscalePolicyKind::kUtilization;
  policy.autoscaler.min_devices = 1;
  policy.autoscaler.max_devices = 3;
  policy.autoscaler.tick_ms = 50.0;
  policy.autoscaler.warmup_ms = 100.0;
  policy.autoscaler.cooldown_ms = 200.0;
  policy.overload.shed = fleet::ShedMode::kPriority;
  policy.overload.queue_limit = 8;
  spec.fleet_policy = std::move(policy);
  return spec;
}

workload::ScenarioSpec static_spec(int tasks) {
  workload::ScenarioSpec spec;
  spec.name = "bench_fleet_static";
  spec.base = churn_spec().base;
  spec.fleet_mode = true;
  workload::TaskEntrySpec entry;
  entry.name = "cam";
  entry.count = tasks;
  spec.tasks.push_back(entry);
  return spec;
}

double wall_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  const auto churn = churn_spec();
  workload::validate(churn);

  // Warm-up run (page in code, grow slabs) + measured run.
  fleet::FleetRunResult warm = workload::run_spec(churn).dyn;
  fleet::FleetRunResult result;
  const double churn_s =
      wall_seconds([&] { result = workload::run_spec(churn).dyn; });

  // Static comparison sized to the churn run's mean live-stream count
  // (streams integrated over samples / sample count).
  double mean_live = 0.0;
  for (const auto& s : result.series.samples) mean_live += s.streams_live;
  if (!result.series.samples.empty()) {
    mean_live /= static_cast<double>(result.series.samples.size());
  }
  const int static_tasks = std::max(1, static_cast<int>(mean_live + 0.5));
  const auto fixed = static_spec(static_tasks);
  workload::validate(fixed);
  workload::SpecResult fixed_warm = workload::run_spec(fixed);
  workload::SpecResult fixed_result;
  const double static_s =
      wall_seconds([&] { fixed_result = workload::run_spec(fixed); });

  const double churn_eps = result.sim_events / churn_s;
  const double static_eps = fixed_result.fleet
                                ? fixed_result.cluster.sim_events / static_s
                                : fixed_result.single.sim_events / static_s;

  std::cout << "fleet churn bench\n"
            << "  churn:  " << result.sim_events << " events in " << churn_s
            << " s (" << churn_eps / 1e6 << " M events/s), "
            << result.streams_admitted << " streams admitted, "
            << result.streams_retired << " retired, " << result.scale_ups
            << " scale-ups, " << result.scale_downs << " scale-downs, "
            << result.jobs_shed << " shed\n"
            << "  static: " << static_tasks << " tasks, " << static_eps / 1e6
            << " M events/s\n";
  (void)warm;
  (void)fixed_warm;

  bench::BenchReport report("fleet");
  report.add("churn_wall_s", churn_s, "s");
  report.add("churn_sim_events", result.sim_events, "events");
  report.add("churn_events_per_s", churn_eps, "events/s");
  report.add("streams_admitted",
             static_cast<double>(result.streams_admitted), "streams");
  report.add("streams_retired",
             static_cast<double>(result.streams_retired), "streams");
  report.add("jobs_shed", static_cast<double>(result.jobs_shed), "jobs");
  report.add("scale_ups", static_cast<double>(result.scale_ups), "actions");
  report.add("scale_downs", static_cast<double>(result.scale_downs),
             "actions");
  report.add("peak_devices", static_cast<double>(result.peak_devices),
             "devices");
  report.add("static_wall_s", static_s, "s");
  report.add("static_events_per_s", static_eps, "events/s");
  report.add("churn_vs_static_events_per_s_ratio", churn_eps / static_eps,
             "ratio");
  // BENCH_fleet.json is shared with bench_shard_scaling: fold in whatever
  // the other binary already wrote so run order does not matter.
  report.merge_existing();
  report.write();
  return 0;
}
