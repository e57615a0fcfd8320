// Quickstart: schedule a handful of periodic ResNet18 inference tasks with
// SGPRS and with the naive spatial-partitioning baseline, then compare the
// paper's two metrics (total FPS and deadline miss rate).
//
//   ./examples/quickstart [num_tasks]
#include <cstdlib>
#include <iostream>

#include "metrics/report.hpp"
#include "workload/spec.hpp"

int main(int argc, char** argv) {
  using namespace sgprs;

  const int num_tasks = argc > 1 ? std::atoi(argv[1]) : 12;
  if (num_tasks < 1) {
    std::cerr << "usage: quickstart [num_tasks >= 1]\n";
    return 1;
  }

  std::cout << "SGPRS quickstart: " << num_tasks
            << " identical ResNet18 tasks @ 30 fps, 6 stages each,\n"
            << "2-context pool on a simulated RTX 2080 Ti (68 SMs).\n\n";

  metrics::Table table({"scheduler", "oversub", "total FPS", "DMR",
                        "p50 lat (ms)", "p99 lat (ms)", "migrations"});

  // One spec describes the run: the pool on `base`, and one task entry of
  // `num_tasks` identical streams (its defaults are the paper's ResNet18 @
  // 30 fps, 6 stages).
  workload::ScenarioSpec spec;
  spec.base.num_contexts = 2;
  spec.tasks.emplace_back().count = num_tasks;

  // Naive baseline: static spatial partitioning, one stream per context.
  spec.base.scheduler = workload::SchedulerKind::kNaive;
  const auto nr = workload::run_spec(spec);
  table.add_row({"naive", "-", metrics::Table::fmt(nr.fps()),
                 metrics::Table::pct(nr.dmr()),
                 metrics::Table::fmt(nr.aggregate().p50_latency_ms, 2),
                 metrics::Table::fmt(nr.aggregate().p99_latency_ms, 2), "0"});

  // SGPRS at the paper's three over-subscription levels.
  spec.base.scheduler = workload::SchedulerKind::kSgprs;
  for (double os : {1.0, 1.5, 2.0}) {
    spec.base.oversubscription = os;
    const auto r = workload::run_spec(spec);
    table.add_row({"sgprs", metrics::Table::fmt(os, 1),
                   metrics::Table::fmt(r.fps()),
                   metrics::Table::pct(r.dmr()),
                   metrics::Table::fmt(r.aggregate().p50_latency_ms, 2),
                   metrics::Table::fmt(r.aggregate().p99_latency_ms, 2),
                   std::to_string(r.migrations())});
  }

  table.print(std::cout);
  std::cout << "\nTotal FPS counts completed frames per measured second; "
               "DMR counts late plus dropped frames.\n";
  return 0;
}
