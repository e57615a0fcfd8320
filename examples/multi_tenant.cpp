// Multi-tenant inference: heterogeneous DNNs with different rates and
// deadlines sharing one GPU under SGPRS — the deployment the paper's
// introduction motivates (transportation / healthcare / speech stacks
// co-located on one accelerator).
//
// Builds the stack from the lower-level API (instead of a
// workload::ScenarioSpec run through run_spec) to show how custom task
// sets are assembled.
#include <iostream>
#include <memory>

#include "dnn/builders.hpp"
#include "dnn/profiler.hpp"
#include "gpu/context_pool.hpp"
#include "metrics/report.hpp"
#include "rt/runner.hpp"
#include "rt/sgprs_scheduler.hpp"
#include "sim/engine.hpp"

int main() {
  using namespace sgprs;
  using common::SimTime;

  sim::Engine engine;
  gpu::Executor exec(engine, gpu::rtx2080ti(),
                     gpu::SpeedupModel::rtx2080ti(), gpu::SharingParams{});

  gpu::ContextPoolConfig pool_cfg;
  pool_cfg.num_contexts = 3;
  pool_cfg.oversubscription = 1.5;
  gpu::ContextPool pool(exec, pool_cfg);

  dnn::Profiler profiler(gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                         dnn::CostModel::calibrated());
  const std::vector<int> pool_sms = {pool.at(0).sm_limit};

  // A camera perception stack, a heavier scene classifier, a lightweight
  // wake-word-style net, and a tiny safety monitor.
  struct Tenant {
    std::string name;
    dnn::Network net;
    double fps;
    int copies;
    int stages;
  };
  std::vector<Tenant> tenants;
  tenants.push_back({"resnet18-cam", dnn::resnet18(), 30.0, 6, 6});
  tenants.push_back({"resnet34-scene", dnn::resnet34(), 10.0, 2, 8});
  tenants.push_back({"mobilenet-det", dnn::mobilenet_like(), 60.0, 2, 6});
  tenants.push_back({"lenet-safety", dnn::lenet5(), 100.0, 1, 2});

  std::vector<rt::Task> tasks;
  std::vector<std::string> task_names;
  int id = 0;
  for (auto& tn : tenants) {
    auto shared = std::make_shared<const dnn::Network>(std::move(tn.net));
    for (int c = 0; c < tn.copies; ++c) {
      rt::TaskConfig tc;
      tc.name = tn.name + "#" + std::to_string(c);
      tc.fps = tn.fps;
      tc.num_stages = tn.stages;
      rt::Task t = rt::build_task(id++, shared, tc, profiler, pool_sms);
      // Spread phases to avoid a synchronized burst at t=0.
      t.phase = SimTime::from_ms(1.7 * id);
      task_names.push_back(tc.name);
      tasks.push_back(std::move(t));
    }
  }

  metrics::Collector collector(SimTime::from_ms(300));
  rt::SgprsScheduler scheduler(exec, pool, collector);

  rt::RunnerConfig rc;
  rc.duration = SimTime::from_sec(2.0);
  rt::Runner runner(engine, scheduler, tasks, rc);
  runner.run();

  std::cout << "Multi-tenant SGPRS: " << tasks.size()
            << " tasks over a 3-context pool (os 1.5)\n\n";
  metrics::Table t({"task", "rate (fps)", "achieved fps", "DMR",
                    "p99 lat (ms)"});
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto s = collector.per_task(static_cast<int>(i), rc.duration);
    t.add_row({task_names[i],
               metrics::Table::fmt(1.0 / tasks[i].period.to_sec(), 0),
               metrics::Table::fmt(s.fps, 1), metrics::Table::pct(s.dmr),
               metrics::Table::fmt(s.p99_latency_ms, 2)});
  }
  t.print(std::cout);

  const auto agg = collector.aggregate(rc.duration);
  std::cout << "\nAggregate: " << metrics::Table::fmt(agg.fps, 0)
            << " fps, DMR " << metrics::Table::pct(agg.dmr) << ", "
            << scheduler.stage_migrations()
            << " seamless partition switches.\n";
  return 0;
}
