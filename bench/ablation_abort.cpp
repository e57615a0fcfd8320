// Ablation E (extension study): deadline-aware shedding.
//
// Two knobs beyond the paper: the per-task in-flight cap (frame-buffer
// depth) and aborting jobs whose final deadline has already passed. Both
// trade completed-late frames against on-time capacity under overload.
#include <iostream>

#include "figure_common.hpp"

int main() {
  using namespace sgprs;
  using metrics::Table;

  std::cout << "Ablation E — overload shedding (Scenario 1, os 1.5, 28 "
               "tasks)\n\n";
  Table t({"variant", "total FPS", "on-time FPS", "DMR", "p99 lat (ms)"});
  struct V {
    std::string name;
    int cap;
    bool abort_hopeless;
  };
  for (const auto& v :
       {V{"cap 1, no abort (default)", 1, false},
        V{"cap 1 + abort hopeless", 1, true},
        V{"cap 2, no abort", 2, false},
        V{"cap 2 + abort hopeless", 2, true},
        V{"cap 4, no abort", 4, false},
        V{"cap 4 + abort hopeless", 4, true}}) {
    auto spec = bench::figure_base(2, 28);
    spec.base.oversubscription = 1.5;
    spec.base.sgprs.max_in_flight_per_task = v.cap;
    spec.base.sgprs.abort_hopeless = v.abort_hopeless;
    const auto r = workload::run_spec(spec);
    t.add_row({v.name, Table::fmt(r.fps(), 0),
               Table::fmt(r.aggregate().fps_on_time, 0),
               Table::pct(r.dmr()),
               Table::fmt(r.aggregate().p99_latency_ms, 1)});
    std::cerr << "  " << v.name << " done\n";
  }
  t.print(std::cout);
  std::cout << "\nDeeper frame buffers push frames through late (total FPS "
               "holds, on-time FPS\ncollapses); aborting hopeless jobs "
               "reclaims that waste for frames that can still\nmake it.\n";
  return 0;
}
