// Extension study: heterogeneous context pools.
//
// The paper's pool model CP = {cp_1..cp_np} allows per-context SM counts
// but its evaluation only uses uniform pools. This compares uniform pools
// against lopsided splits at the same total allocation — relevant when one
// tenant needs a latency-optimized big partition.
#include <iostream>
#include <numeric>

#include "figure_common.hpp"

int main() {
  using namespace sgprs;
  using metrics::Table;

  struct Pool {
    std::string name;
    std::vector<int> sms;
  };
  const Pool pools[] = {
      {"uniform 34+34", {34, 34}},
      {"lopsided 45+23", {45, 23}},
      {"lopsided 51+17", {51, 17}},
      {"uniform 34+34+34 (os 1.5)", {34, 34, 34}},
      {"mixed 51+34+17 (os 1.5)", {51, 34, 17}},
      {"big+small 60+21+21 (os 1.5)", {60, 21, 21}},
  };

  std::cout << "Heterogeneous pools — identical ResNet18 tasks @ 30 fps\n";
  for (int tasks : {20, 24}) {
    Table t({"pool", "total SMs", "total FPS", "DMR", "p99 lat (ms)"});
    for (const auto& p : pools) {
      auto spec = bench::figure_base(2, tasks);
      spec.base.context_sms = p.sms;
      const auto r = workload::run_spec(spec);
      const int total = std::accumulate(p.sms.begin(), p.sms.end(), 0);
      t.add_row({p.name, std::to_string(total), Table::fmt(r.fps(), 0),
                 Table::pct(r.dmr()),
                 Table::fmt(r.aggregate().p99_latency_ms, 1)});
      std::cerr << "  " << tasks << "/" << p.name << " done\n";
    }
    std::cout << "\n" << tasks << " tasks:\n";
    t.print(std::cout);
  }
  std::cout << "\nWith identical tasks, uniform pools win slightly (no "
               "partition is a bottleneck);\nlopsided pools become "
               "interesting for mixed-criticality sets — see "
               "examples/multi_tenant.\n";
  return 0;
}
