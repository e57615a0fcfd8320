// Ablation A: the paper's two offline/online priority mechanisms.
//
//  * Two-level priority assignment (last stage high) vs all-low / all-high
//    (Section IV-A1).
//  * Medium-priority promotion of late chains on vs off (Section IV-B3).
//
// Run in the overload region (26 tasks, Scenario 1, os 1.5) where the
// mechanisms matter.
#include <iostream>

#include "figure_common.hpp"

int main() {
  using namespace sgprs;
  using metrics::Table;

  auto base = bench::figure_base(2, 26);
  base.base.oversubscription = 1.5;

  struct Variant {
    std::string name;
    rt::PriorityPolicy policy;
    bool medium_boost;
  };
  const Variant variants[] = {
      {"two-level + medium boost (paper)", rt::PriorityPolicy::kLastStageHigh,
       true},
      {"two-level, no medium boost", rt::PriorityPolicy::kLastStageHigh,
       false},
      {"all-low + medium boost", rt::PriorityPolicy::kAllLow, true},
      {"all-low, no medium boost", rt::PriorityPolicy::kAllLow, false},
      {"all-high (priority inflation)", rt::PriorityPolicy::kAllHigh, false},
  };

  Table t({"variant", "total FPS", "DMR", "p99 lat (ms)",
           "medium promotions"});
  for (const auto& v : variants) {
    auto spec = base;
    spec.tasks[0].priority_policy = v.policy;
    spec.base.sgprs.medium_boost = v.medium_boost;
    const auto r = workload::run_spec(spec);
    t.add_row({v.name, Table::fmt(r.fps(), 0), Table::pct(r.dmr()),
               Table::fmt(r.aggregate().p99_latency_ms, 1),
               std::to_string(r.medium_promotions())});
    std::cerr << "  " << v.name << " done\n";
  }

  std::cout << "Ablation A — priority mechanisms (Scenario 1, os 1.5, 26 "
               "tasks, overload)\n\n";
  t.print(std::cout);
  std::cout << "\nExpected: the paper combination minimizes DMR; all-high "
               "collapses the distinction\nbetween final and intermediate "
               "stages and hurts tail latency.\n";
  return 0;
}
