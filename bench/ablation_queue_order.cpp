// Ablation D: EDF vs FIFO ordering inside each priority level.
//
// The paper (Section IV-B3) orders stages within a priority level by
// Earliest Deadline First. This quantifies what that buys over plain
// arrival order at increasing load.
#include <iostream>

#include "figure_common.hpp"

int main() {
  using namespace sgprs;
  using metrics::Table;

  std::cout << "Ablation D — intra-level queue ordering (Scenario 1, os "
               "1.5)\n";
  for (int tasks : {22, 25, 28}) {
    Table t({"ordering", "total FPS", "DMR", "p50 lat (ms)",
             "p99 lat (ms)"});
    for (auto [name, order] :
         {std::pair{"EDF (paper)", rt::QueueOrder::kEdf},
          std::pair{"FIFO", rt::QueueOrder::kFifo}}) {
      auto spec = bench::figure_base(2, tasks);
      spec.base.oversubscription = 1.5;
      spec.base.sgprs.queue_order = order;
      const auto r = workload::run_spec(spec);
      t.add_row({name, Table::fmt(r.fps(), 0), Table::pct(r.dmr()),
                 Table::fmt(r.aggregate().p50_latency_ms, 2),
                 Table::fmt(r.aggregate().p99_latency_ms, 2)});
      std::cerr << "  " << tasks << "/" << name << " done\n";
    }
    std::cout << "\n" << tasks << " tasks:\n";
    t.print(std::cout);
  }
  return 0;
}
