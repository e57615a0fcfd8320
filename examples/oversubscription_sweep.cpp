// Over-subscription explorer: for a fixed workload, sweep the pool's
// over-subscription level and report where the sweet spot sits. This is
// the design decision Figs. 3a/4a study — more over-subscription buys
// opportunistic parallelism but adds cross-context contention.
//
//   ./examples/oversubscription_sweep [num_tasks] [num_contexts]
#include <cstdlib>
#include <iostream>

#include "metrics/report.hpp"
#include "workload/spec.hpp"

int main(int argc, char** argv) {
  using namespace sgprs;

  const int num_tasks = argc > 1 ? std::atoi(argv[1]) : 24;
  const int num_contexts = argc > 2 ? std::atoi(argv[2]) : 3;
  if (num_tasks < 1 || num_contexts < 1) {
    std::cerr << "usage: oversubscription_sweep [num_tasks] [num_contexts]\n";
    return 1;
  }

  std::cout << "Over-subscription sweep: " << num_tasks
            << " ResNet18 tasks @ 30 fps on " << num_contexts
            << " contexts\n\n";

  metrics::Table t({"oversub", "SMs/context", "total FPS", "DMR",
                    "p99 lat (ms)"});
  double best_fps = -1.0;
  double best_os = 1.0;
  workload::ScenarioSpec spec;
  spec.base.num_contexts = num_contexts;
  spec.base.duration = common::SimTime::from_sec(2.0);
  spec.base.warmup = common::SimTime::from_ms(400);
  spec.tasks.emplace_back().count = num_tasks;
  for (double os : {1.0, 1.25, 1.5, 1.75, 2.0, 2.5}) {
    spec.base.oversubscription = os;
    const auto r = workload::run_spec(spec);
    const double p99_ms = r.aggregate().p99_latency_ms;
    const int sms = gpu::ContextPool::sms_per_context(
        spec.base.device.total_sms, num_contexts, os);
    t.add_row({metrics::Table::fmt(os, 2), std::to_string(sms),
               metrics::Table::fmt(r.fps(), 0), metrics::Table::pct(r.dmr()),
               metrics::Table::fmt(p99_ms, 1)});
    // Prefer higher FPS, penalize DMR, and break near-ties toward lower
    // tail latency (slack matters even when nothing misses yet).
    const double score = r.fps() * (1.0 - 0.5 * r.dmr()) - 0.01 * p99_ms;
    if (score > best_fps) {
      best_fps = score;
      best_os = os;
    }
  }
  t.print(std::cout);
  std::cout << "\nRecommended over-subscription for this workload: "
            << metrics::Table::fmt(best_os, 2) << "x\n"
            << "(The paper finds 2.0x best with 2 contexts but 1.5x best "
               "with 3 — more contexts\nalready cover the GPU, so extra "
               "over-subscription mostly adds contention.)\n";
  return 0;
}
