// bench_fault_recovery — overhead of fault injection and failover in the
// online fleet runtime: the same churning fleet with and without a
// stochastic crash/repair process plus scripted correlated outages.
//
// Two runs, both Release, both measured with the process-local steady
// clock after a warm-up run:
//   * faulty: a 3-device fleet under Poisson stream churn, a seeded
//     MTBF/MTTR process knocking devices out, scripted correlated crashes,
//     and retry-with-backoff failover re-placing the orphans;
//   * clean: the identical spec with the "faults" section removed.
// Feeds BENCH_fleet.json (BenchReport::merge_existing; schema v2,
// docs/benchmarks.md) alongside bench_fleet_churn and bench_shard_scaling.
// Trajectory data, not a gate: the interesting number is the failover
// engine's control-plane cost — events per wall second faulty vs. clean —
// plus the recovery-latency tail the run produced.
#include <chrono>
#include <iostream>

#include "figure_common.hpp"
#include "workload/spec.hpp"

namespace {

using namespace sgprs;

workload::ScenarioSpec base_spec() {
  workload::ScenarioSpec spec;
  spec.name = "bench_fault_recovery";
  spec.base.num_contexts = 2;
  spec.base.oversubscription = 1.5;
  spec.base.duration = common::SimTime::from_sec(2.0);
  spec.base.warmup = common::SimTime::from_sec(0.2);
  spec.base.seed = 42;
  spec.base.admission_margin = 0.9;
  spec.base.num_devices = 3;
  spec.fleet_mode = true;

  workload::TaskEntrySpec cams;
  cams.name = "cam";
  cams.count = 9;
  spec.tasks.push_back(cams);

  fleet::TimelineSpec timeline;
  timeline.seed = 7;
  fleet::StreamTemplate tmpl;
  tmpl.name = "feed";
  tmpl.tier = 1;
  tmpl.fps = 20.0;
  timeline.templates.push_back(tmpl);
  fleet::ArrivalProcess arrivals;
  arrivals.tmpl = "feed";
  arrivals.rate_per_s = 20.0;
  arrivals.lifetime_min_s = 0.3;
  arrivals.lifetime_max_s = 1.0;
  arrivals.from_s = 0.2;
  timeline.arrivals.push_back(arrivals);
  spec.timeline = std::move(timeline);
  return spec;
}

workload::ScenarioSpec faulty_spec() {
  workload::ScenarioSpec spec = base_spec();
  fleet::FaultSpec faults;
  faults.seed = 13;
  faults.process.mtbf_s = 0.8;
  faults.process.mttr_s = 0.3;
  faults.process.from_s = 0.3;
  fleet::FaultEvent outage;
  outage.kind = fleet::FaultEvent::Kind::kCrash;
  outage.at_s = 1.01;
  outage.device = -1;
  outage.count = 2;
  outage.down_s = 0.25;
  faults.events.push_back(outage);
  faults.failover.max_attempts = 4;
  faults.failover.backoff_ms = 20.0;
  faults.failover.backoff_mult = 2.0;
  faults.failover.jitter_ms = 5.0;
  faults.min_active_devices = 2;
  faults.degraded_queue_limit = 2;
  spec.faults = std::move(faults);
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
  const auto faulty = faulty_spec();
  const auto clean = base_spec();
  workload::validate(faulty);
  workload::validate(clean);

  // Warm-up run (page in code, grow slabs) + measured run, each flavour.
  fleet::FleetRunResult warm = workload::run_spec(faulty).dyn;
  fleet::FleetRunResult result;
  const double faulty_s =
      wall_seconds([&] { result = workload::run_spec(faulty).dyn; });

  fleet::FleetRunResult clean_warm = workload::run_spec(clean).dyn;
  fleet::FleetRunResult clean_result;
  const double clean_s =
      wall_seconds([&] { clean_result = workload::run_spec(clean).dyn; });

  const double faulty_eps = result.sim_events / faulty_s;
  const double clean_eps = clean_result.sim_events / clean_s;

  std::cout << "fault recovery bench\n"
            << "  faulty: " << result.sim_events << " events in " << faulty_s
            << " s (" << faulty_eps / 1e6 << " M events/s), "
            << result.devices_failed << " crashes, "
            << result.devices_recovered << " recoveries, "
            << result.failovers << " failovers ("
            << result.failover_retries << " retries), "
            << result.jobs_faulted << " jobs faulted, "
            << result.streams_lost << " streams lost, recovery p99 "
            << result.recovery_p99_s << " s, unavailability "
            << result.unavailability_s << " stream-s\n"
            << "  clean:  " << clean_result.sim_events << " events in "
            << clean_s << " s (" << clean_eps / 1e6 << " M events/s)\n";
  (void)warm;
  (void)clean_warm;

  bench::BenchReport report("fleet");
  report.add("fault_wall_s", faulty_s, "s");
  report.add("fault_sim_events", result.sim_events, "events");
  report.add("fault_events_per_s", faulty_eps, "events/s");
  report.add("fault_devices_failed", static_cast<double>(result.devices_failed),
             "crashes");
  report.add("fault_devices_recovered",
             static_cast<double>(result.devices_recovered), "recoveries");
  report.add("fault_failovers", static_cast<double>(result.failovers), "streams");
  report.add("fault_failover_retries",
             static_cast<double>(result.failover_retries), "attempts");
  report.add("fault_jobs_faulted", static_cast<double>(result.jobs_faulted),
             "jobs");
  report.add("fault_streams_lost", static_cast<double>(result.streams_lost),
             "streams");
  report.add("fault_recovery_p99_s", result.recovery_p99_s, "s");
  report.add("fault_unavailability_s", result.unavailability_s, "stream-s");
  report.add("fault_clean_wall_s", clean_s, "s");
  report.add("fault_clean_events_per_s", clean_eps, "events/s");
  report.add("fault_vs_clean_events_per_s_ratio", faulty_eps / clean_eps,
             "ratio");
  report.merge_existing();
  report.write();
  return 0;
}
