// Micro-benchmarks (google-benchmark): costs of the building blocks —
// event engine throughput, share computation, executor kernel churn,
// scheduler decision latency, and a full scenario second.
#include <benchmark/benchmark.h>

#include <memory>

#include "dnn/builders.hpp"
#include "dnn/profiler.hpp"
#include "gpu/context_pool.hpp"
#include "rt/runner.hpp"
#include "rt/sgprs_scheduler.hpp"
#include "sim/engine.hpp"
#include "workload/spec.hpp"

namespace {

using namespace sgprs;

void BM_EngineScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_at(common::SimTime::from_ns(i), [] {});
    }
    engine.run();
    benchmark::DoNotOptimize(engine.processed_count());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleFire);

void BM_ComputeShares(benchmark::State& state) {
  const auto model = gpu::SpeedupModel::rtx2080ti();
  const std::vector<int> ctx_sms = {45, 45, 45};
  std::vector<gpu::ShareRequest> reqs;
  for (int i = 0; i < state.range(0); ++i) {
    reqs.push_back({i % 3, i % 2 ? 2.0 : 1.0, gpu::OpClass::kConv});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gpu::compute_shares(model, 68, ctx_sms, reqs, gpu::SharingParams{}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ComputeShares)->Arg(4)->Arg(12);

void BM_ExecutorKernelChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    gpu::Executor exec(engine, gpu::rtx2080ti(),
                       gpu::SpeedupModel::rtx2080ti(), gpu::SharingParams{});
    const auto ctx = exec.create_context(34);
    const auto s0 = exec.create_stream(ctx, gpu::StreamPriority::kHigh);
    const auto s1 = exec.create_stream(ctx, gpu::StreamPriority::kLow);
    gpu::KernelDesc k;
    k.op = gpu::OpClass::kConv;
    k.work_sm_seconds = 1e-4;
    for (int i = 0; i < 500; ++i) {
      exec.enqueue(i % 2 ? s0 : s1, k, {});
    }
    engine.run();
    benchmark::DoNotOptimize(exec.total_work_done());
  }
  state.SetItemsProcessed(state.iterations() * 500);
  state.SetLabel("kernels per iteration: 500");
}
BENCHMARK(BM_ExecutorKernelChurn);

void BM_SgprsReleaseDecision(benchmark::State& state) {
  // Cost of one release -> context assignment -> dispatch chain.
  sim::Engine engine;
  gpu::Executor exec(engine, gpu::rtx2080ti(),
                     gpu::SpeedupModel::rtx2080ti(), gpu::SharingParams{});
  gpu::ContextPoolConfig pc;
  pc.num_contexts = 3;
  gpu::ContextPool pool(exec, pc);
  metrics::Collector collector;
  rt::SgprsScheduler sched(exec, pool, collector);
  dnn::Profiler prof(gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                     dnn::CostModel::calibrated());
  auto net = std::make_shared<const dnn::Network>(dnn::resnet18());
  std::vector<rt::Task> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back(rt::build_task(i, net, {}, prof, {pool.at(0).sm_limit}));
    sched.admit(tasks.back());
  }
  int i = 0;
  for (auto _ : state) {
    sched.release_job(tasks[i % 64], engine.now());
    ++i;
    if (i % 64 == 0) {
      state.PauseTiming();
      engine.run();  // drain so in-flight caps do not saturate
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SgprsReleaseDecision);

void BM_FullScenarioSecond(benchmark::State& state) {
  // Simulating one second of 20-task SGPRS operation (the unit of work
  // behind every figure data point).
  for (auto _ : state) {
    workload::ScenarioSpec spec;
    spec.base.num_contexts = 2;
    spec.base.oversubscription = 1.5;
    spec.base.duration = common::SimTime::from_sec(1.0);
    spec.base.warmup = common::SimTime::from_ms(100);
    spec.tasks.emplace_back().count = 20;
    benchmark::DoNotOptimize(workload::run_spec(spec));
  }
}
BENCHMARK(BM_FullScenarioSecond)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
