// Ablation C: stage granularity. The paper fixes 6 stages per task; this
// sweeps the partition size to show the trade-off that motivates staging —
// too coarse loses scheduling flexibility (no pipelining, no migration
// points), too fine pays launch-overhead and queueing overhead per stage.
#include <iostream>

#include "figure_common.hpp"

int main() {
  using namespace sgprs;
  using metrics::Table;

  std::cout << "Ablation C — stage-count sweep (Scenario 2, os 1.5, 24 "
               "tasks)\n\n";
  Table t({"stages/task", "total FPS", "DMR", "p50 lat (ms)",
           "p99 lat (ms)", "migrations"});
  for (int stages : {1, 2, 3, 6, 12, 24}) {
    auto spec = bench::figure_base(3, 24);
    spec.base.oversubscription = 1.5;
    spec.tasks[0].num_stages = stages;
    const auto r = workload::run_spec(spec);
    t.add_row({std::to_string(stages), Table::fmt(r.fps(), 0),
               Table::pct(r.dmr()),
               Table::fmt(r.aggregate().p50_latency_ms, 2),
               Table::fmt(r.aggregate().p99_latency_ms, 2),
               std::to_string(r.migrations())});
    std::cerr << "  " << stages << " stages done\n";
  }
  t.print(std::cout);
  std::cout << "\nCoarse partitions (1 stage) minimize queueing hops but "
               "give up migration and\nstage-priority leverage; very fine "
               "partitions recover flexibility at the cost of\nper-stage "
               "dispatch overhead. See EXPERIMENTS.md for discussion.\n";
  return 0;
}
