// The paper workload as a spec (figure_base) and the sweep driver for the
// Fig. 3 / Fig. 4 reproductions, shared with the tables and ablations.
#pragma once

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "metrics/report.hpp"
#include "workload/spec.hpp"

namespace sgprs::bench {

struct FigureSweep {
  std::string label;                 // e.g. "naive", "SGPRS 1.5"
  std::vector<workload::SpecResult> results;
};

/// The paper's evaluation workload as a one-entry spec: `count` identical
/// ResNet18 tasks @ 30 fps, 6 stages each, on a `num_contexts` pool of one
/// RTX 2080 Ti, 2 simulated seconds with a 0.4 s warm-up. Benches adjust
/// the scheduler knobs on `base` and the task shape on `tasks[0]`.
inline workload::ScenarioSpec figure_base(int num_contexts, int count = 1) {
  workload::ScenarioSpec spec;
  spec.base.num_contexts = num_contexts;
  spec.base.duration = common::SimTime::from_sec(2.0);
  spec.base.warmup = common::SimTime::from_sec(0.4);
  spec.tasks.emplace_back().count = count;
  return spec;
}

/// Runs the paper's comparison set over n = [from, to]: the naive baseline
/// plus SGPRS at over-subscription 1.0 / 1.5 / 2.0.
inline std::vector<FigureSweep> run_figure(int num_contexts, int from,
                                           int to) {
  std::vector<FigureSweep> sweeps;
  {
    auto spec = figure_base(num_contexts);
    spec.base.scheduler = workload::SchedulerKind::kNaive;
    sweeps.push_back({"naive", workload::sweep_num_tasks(spec, from, to)});
    std::cerr << "  naive done\n";
  }
  for (double os : {1.0, 1.5, 2.0}) {
    auto spec = figure_base(num_contexts);
    spec.base.scheduler = workload::SchedulerKind::kSgprs;
    spec.base.oversubscription = os;
    char label[32];
    std::snprintf(label, sizeof(label), "SGPRS %.1f", os);
    sweeps.push_back({label, workload::sweep_num_tasks(spec, from, to)});
    std::cerr << "  " << label << " done\n";
  }
  return sweeps;
}

/// Prints the two panels of a figure: (a) total FPS, (b) DMR.
inline void print_figure(const std::string& title,
                         const std::vector<FigureSweep>& sweeps, int from) {
  const auto n_points = sweeps.front().results.size();

  std::vector<std::string> headers = {"#tasks"};
  for (const auto& s : sweeps) headers.push_back(s.label);

  metrics::Table fps(headers);
  metrics::Table dmr(headers);
  for (std::size_t i = 0; i < n_points; ++i) {
    std::vector<std::string> frow = {std::to_string(from + (int)i)};
    std::vector<std::string> drow = frow;
    for (const auto& s : sweeps) {
      frow.push_back(metrics::Table::fmt(s.results[i].fps(), 0));
      drow.push_back(metrics::Table::pct(s.results[i].dmr()));
    }
    fps.add_row(frow);
    dmr.add_row(drow);
  }

  std::cout << title << "\n\n(a) Total FPS reached\n";
  fps.print(std::cout);
  std::cout << "\n(b) Deadline miss rate\n";
  dmr.print(std::cout);

  std::cout << "\nPivot points (largest task count with zero misses):\n";
  for (const auto& s : sweeps) {
    const int pivot = workload::find_pivot(s.results, from);
    double peak = 0.0;
    for (const auto& r : s.results) peak = std::max(peak, r.fps());
    std::cout << "  " << s.label << ": pivot = " << pivot
              << " tasks, peak FPS = " << metrics::Table::fmt(peak, 0)
              << ", FPS at max load = "
              << metrics::Table::fmt(s.results.back().fps(), 0) << "\n";
  }
}

}  // namespace sgprs::bench
