// Exports a chrome://tracing / Perfetto timeline of an SGPRS schedule
// through obs::SpanSink's kernel track: one thread lane per stream on the
// device's process, kernels labelled by layer. Open the output at
// https://ui.perfetto.dev.
//
//   ./examples/trace_export [out.json] [num_tasks]
#include <fstream>
#include <iostream>
#include <memory>

#include "dnn/builders.hpp"
#include "dnn/profiler.hpp"
#include "gpu/context_pool.hpp"
#include "obs/span.hpp"
#include "rt/runner.hpp"
#include "rt/sgprs_scheduler.hpp"
#include "sim/engine.hpp"

int main(int argc, char** argv) {
  using namespace sgprs;
  using common::SimTime;

  const std::string out_path = argc > 1 ? argv[1] : "sgprs_trace.json";
  const int num_tasks = argc > 2 ? std::atoi(argv[2]) : 8;

  sim::Engine engine;
  gpu::Executor exec(engine, gpu::rtx2080ti(),
                     gpu::SpeedupModel::rtx2080ti(), gpu::SharingParams{});
  obs::SpanSink spans;
  spans.set_device_name(0, exec.device().name);
  exec.set_trace_sink(&spans.kernel_tracer(0));

  gpu::ContextPoolConfig pool_cfg;
  pool_cfg.num_contexts = 2;
  pool_cfg.oversubscription = 1.5;
  gpu::ContextPool pool(exec, pool_cfg);

  dnn::Profiler profiler(gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                         dnn::CostModel::calibrated());
  auto net = std::make_shared<const dnn::Network>(dnn::resnet18());

  std::vector<rt::Task> tasks;
  for (int i = 0; i < num_tasks; ++i) {
    rt::TaskConfig tc;
    tc.name = "cam" + std::to_string(i);
    rt::Task t = rt::build_task(i, net, tc, profiler, {pool.at(0).sm_limit});
    t.phase = SimTime::from_ms(2.1 * i);
    tasks.push_back(std::move(t));
  }

  metrics::Collector collector;
  rt::SgprsScheduler scheduler(exec, pool, collector);
  rt::RunnerConfig rc;
  rc.duration = SimTime::from_ms(200);  // ~6 frames per task
  rt::Runner runner(engine, scheduler, tasks, rc);
  runner.run();
  spans.set_horizon(rc.duration);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }
  spans.write_perfetto(out);

  std::cout << "Wrote " << spans.kernel_tracer(0).records().size()
            << " kernel spans (" << num_tasks << " tasks, 200 ms) to "
            << out_path << "\n"
            << "Open at https://ui.perfetto.dev — pid = device, tid = "
               "stream.\n";
  return 0;
}
