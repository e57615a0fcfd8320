// bench_span_overhead — wall-clock cost of --trace-spans on the online
// fleet runtime.
//
// The same churn-heavy scenario bench_fleet_churn uses, run twice after a
// warm-up: once bare, once with a SpanSink attached (every release /
// dispatch / complete / drop / shed lands in a per-device buffer). The
// interesting number is overhead_pct — the design target is that tracing
// stays cheap enough to leave on for any diagnostic run (< 5% on this
// workload), because the hot path costs one predictable branch plus an
// amortized vector push. Export cost is reported separately: rendering
// the Perfetto JSON happens after the run, off the simulation path.
// Merges into BENCH_fleet.json (schema: docs/benchmarks.md). Trajectory
// data, not a gate.
#include <algorithm>
#include <chrono>
#include <functional>
#include <iostream>
#include <sstream>

#include "figure_common.hpp"
#include "obs/instruments.hpp"
#include "obs/span.hpp"
#include "workload/spec.hpp"

namespace {

using namespace sgprs;

workload::ScenarioSpec churn_spec() {
  workload::ScenarioSpec spec;
  spec.name = "bench_span_overhead";
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

double wall_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  const auto spec = churn_spec();
  workload::validate(spec);
  workload::RunSeeds seeds;
  seeds.sim = spec.base.seed;

  // Warm-up (page in code, grow slabs), then best-of-N interleaved
  // measurements: a single ~50 ms run is noise-dominated, and the minimum
  // over several runs is the standard estimator for deterministic work.
  fleet::FleetRunResult warm = workload::run_spec(spec, seeds).dyn;
  constexpr int kReps = 9;
  fleet::FleetRunResult bare;
  fleet::FleetRunResult traced;
  obs::SpanSink sink;
  double off_s = 1e300, on_s = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto run_bare = [&] {
      off_s = std::min(off_s, wall_seconds([&] {
                bare = workload::run_spec(spec, seeds).dyn;
              }));
    };
    // Fresh sink per rep: identical simulation (pinned by tests/obs/),
    // plus one buffered record per job event.
    obs::SpanSink rep_sink;
    const auto run_traced = [&] {
      obs::Instruments instruments;
      instruments.spans = &rep_sink;
      on_s = std::min(on_s, wall_seconds([&] {
               traced = workload::run_spec(spec, seeds, nullptr,
                                                  instruments).dyn;
             }));
    };
    // Alternate the order so slow drifts (thermal, noisy neighbors) hit
    // both configurations symmetrically.
    if (rep % 2 == 0) {
      run_bare();
      run_traced();
    } else {
      run_traced();
      run_bare();
    }
    if (rep == kReps - 1) sink = std::move(rep_sink);
  }

  std::ostringstream rendered;
  const double export_s =
      wall_seconds([&] { sink.write_perfetto(rendered); });

  const double off_eps = bare.sim_events / off_s;
  const double on_eps = traced.sim_events / on_s;
  const double overhead_pct = (off_eps / on_eps - 1.0) * 100.0;

  std::cout << "span tracing overhead bench\n"
            << "  spans off: " << bare.sim_events << " events in " << off_s
            << " s (" << off_eps / 1e6 << " M events/s)\n"
            << "  spans on:  " << traced.sim_events << " events in " << on_s
            << " s (" << on_eps / 1e6 << " M events/s), "
            << sink.total_events() << " span records\n"
            << "  overhead:  " << overhead_pct << " % (target < 5%), export "
            << export_s * 1e3 << " ms for " << rendered.str().size()
            << " bytes\n";
  (void)warm;

  bench::BenchReport report("fleet");
  report.add("span_off_events_per_s", off_eps, "events/s");
  report.add("span_on_events_per_s", on_eps, "events/s");
  report.add("span_overhead_pct", overhead_pct, "%");
  report.add("span_records", static_cast<double>(sink.total_events()),
             "records");
  report.add("span_export_wall_s", export_s, "s");
  report.add("span_export_bytes", static_cast<double>(rendered.str().size()),
             "bytes");
  // BENCH_fleet.json is shared with the other fleet benches: fold in
  // whatever they already wrote so run order does not matter.
  report.merge_existing();
  report.write();
  return 0;
}
