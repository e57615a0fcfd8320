// Exports a chrome://tracing / Perfetto timeline of an SGPRS schedule: the
// span file `sgprs_cli --trace-spans` writes, with each job's queue and
// exec spans (tid = task id) and each stream's lifetime span on the
// device's process. Open the output at https://ui.perfetto.dev.
//
//   ./examples/trace_export [out.json] [num_tasks]
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>

#include "obs/instruments.hpp"
#include "obs/span.hpp"
#include "workload/spec.hpp"

int main(int argc, char** argv) {
  using namespace sgprs;

  const std::string out_path = argc > 1 ? argv[1] : "sgprs_trace.json";
  const int num_tasks = argc > 2 ? std::atoi(argv[2]) : 8;

  // `num_tasks` ResNet18 streams (a task entry's defaults) on a 2-context
  // pool over-subscribed 1.5x, for 200 ms: ~6 frames per task.
  workload::ScenarioSpec spec;
  spec.name = "trace_export";
  spec.base.num_contexts = 2;
  spec.base.oversubscription = 1.5;
  spec.base.duration = common::SimTime::from_ms(200);
  spec.base.warmup = common::SimTime::zero();
  auto& cams = spec.tasks.emplace_back();
  cams.name = "cam";
  cams.count = num_tasks;

  obs::SpanSink spans;
  try {
    workload::validate(spec);
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot open " << out_path << " for writing\n";
      return 1;
    }
    workload::run_spec(spec, workload::spec_seeds(spec), nullptr,
                       obs::Instruments{.spans = &spans});
    spans.write_perfetto(out);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  std::cout << "Wrote " << spans.total_events() << " span events ("
            << num_tasks << " tasks, 200 ms) to " << out_path << "\n"
            << "Open at https://ui.perfetto.dev — pid = device, tid = "
               "task.\n";
  return 0;
}
