// bench_trace_replay — throughput of trace-driven replay against the
// synthetic churn generators that produced the trace.
//
// One churn run (scripted wave + Poisson arrivals, as bench_fleet_churn)
// is recorded through trace::TraceRecorder, then the captured trace is
// replayed against the same base spec. Both runs are measured with the
// process-local steady clock after a warm-up run. Replay schedules every
// admit/retire up front from the trace instead of drawing them from the
// arrival processes at run time, so the interesting number is the
// ingestion overhead: replayed sim events per wall second vs. synthetic.
// Reports BENCH_trace.json (schema: docs/benchmarks.md). Trajectory data,
// not a gate.
#include <chrono>
#include <functional>
#include <iostream>
#include <memory>

#include "figure_common.hpp"
#include "trace/trace.hpp"
#include "workload/spec.hpp"

namespace {

using namespace sgprs;

workload::ScenarioSpec churn_spec() {
  workload::ScenarioSpec spec;
  spec.name = "bench_trace_replay";
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
  const auto synthetic = churn_spec();
  workload::validate(synthetic);

  // Record once (capture is append-only and does not perturb the run),
  // then measure the plain synthetic run: warm-up + measured.
  trace::TraceRecorder recorder(synthetic.name, "bench capture");
  const fleet::FleetRunResult recorded =
      workload::run_spec(synthetic, {synthetic.base.seed, 0},
                                &recorder).dyn;
  fleet::FleetRunResult synth_result;
  const double synth_s = wall_seconds(
      [&] { synth_result = workload::run_spec(synthetic).dyn; });

  // Replay spec: same base, timeline replaced by the captured trace.
  workload::ScenarioSpec replay = synthetic;
  fleet::TimelineSpec tl;
  tl.trace = std::make_shared<const trace::Trace>(recorder.trace());
  replay.timeline = std::move(tl);
  workload::validate(replay);

  fleet::FleetRunResult warm = workload::run_spec(replay).dyn;
  fleet::FleetRunResult replay_result;
  const double replay_s = wall_seconds(
      [&] { replay_result = workload::run_spec(replay).dyn; });
  (void)recorded;
  (void)warm;

  const auto trace_events =
      static_cast<double>(recorder.trace().events.size());
  const double synth_eps = synth_result.sim_events / synth_s;
  const double replay_eps = replay_result.sim_events / replay_s;

  std::cout << "trace replay bench\n"
            << "  trace:     " << recorder.trace().events.size()
            << " admit/retire events\n"
            << "  synthetic: " << synth_result.sim_events << " events in "
            << synth_s << " s (" << synth_eps / 1e6 << " M events/s)\n"
            << "  replay:    " << replay_result.sim_events << " events in "
            << replay_s << " s (" << replay_eps / 1e6 << " M events/s)\n";

  bench::BenchReport report("trace");
  report.add("trace_events", trace_events, "events");
  report.add("synthetic_wall_s", synth_s, "s");
  report.add("synthetic_sim_events", synth_result.sim_events, "events");
  report.add("synthetic_events_per_s", synth_eps, "events/s");
  report.add("replay_wall_s", replay_s, "s");
  report.add("replay_sim_events", replay_result.sim_events, "events");
  report.add("replay_events_per_s", replay_eps, "events/s");
  report.add("replay_vs_synthetic_events_per_s_ratio",
             replay_eps / synth_eps, "ratio");
  report.write();
  return 0;
}
