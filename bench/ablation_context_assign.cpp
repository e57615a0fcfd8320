// Ablation B: context-assignment policy (paper Section IV-B2).
//
// The paper's three-criteria rule (empty queues first, then deadline-
// meeting with shortest queue, then earliest finish) against round-robin,
// random, and pure least-loaded assignment, across load levels.
#include <iostream>

#include "figure_common.hpp"

int main() {
  using namespace sgprs;
  using metrics::Table;

  struct Variant {
    std::string name;
    rt::ContextAssignPolicy policy;
  };
  const Variant variants[] = {
      {"paper (3 criteria)", rt::ContextAssignPolicy::kPaper},
      {"round-robin", rt::ContextAssignPolicy::kRoundRobin},
      {"random", rt::ContextAssignPolicy::kRandom},
      {"least-loaded", rt::ContextAssignPolicy::kLeastLoaded},
  };

  std::cout << "Ablation B — context assignment policy (Scenario 1, os "
               "1.5)\n";
  for (int tasks : {20, 24, 28}) {
    Table t({"policy", "total FPS", "DMR", "p99 lat (ms)", "migrations"});
    for (const auto& v : variants) {
      auto spec = bench::figure_base(2, tasks);
      spec.base.oversubscription = 1.5;
      spec.base.sgprs.assign_policy = v.policy;
      const auto r = workload::run_spec(spec);
      t.add_row({v.name, Table::fmt(r.fps(), 0), Table::pct(r.dmr()),
                 Table::fmt(r.aggregate().p99_latency_ms, 1),
                 std::to_string(r.migrations())});
      std::cerr << "  " << tasks << " tasks / " << v.name << " done\n";
    }
    std::cout << "\n" << tasks << " tasks:\n";
    t.print(std::cout);
  }
  return 0;
}
