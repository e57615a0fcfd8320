// Allocation gate for gpu::Executor's completion paths.
//
// The executor memoises the grants of contended running sets and keeps the
// completion path's buffers as members, so once a device's running sets
// have been seen, a completion event with several kernels running touches
// no allocator. A lone stream running shared stage programs replays them
// from the solo-step memo, so once each program has run, dispatching a
// stage and its chain event touch no allocator either. This binary
// replaces the global operator new to count every allocation in its
// process, which is why it is its own executable rather than part of
// sgprs_tests.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "dnn/builders.hpp"
#include "dnn/partition.hpp"
#include "gpu/context_pool.hpp"
#include "gpu/executor.hpp"
#include "sim/engine.hpp"

namespace {

std::size_t g_allocations = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocations;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_alloc_or_throw(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++g_allocations;
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sgprs::gpu {
namespace {

TEST(ContendedCompletionAllocations, SteadyStateAllocatesNothing) {
  // The paper's pool: 2 contexts at over-subscription 1.5, two high- and
  // two low-priority streams each, every queue preloaded with ResNet18
  // stage kernels so no enqueue happens while allocations are counted.
  sim::Engine engine;
  Executor exec(engine, rtx2080ti(), SpeedupModel::rtx2080ti(),
                SharingParams{});
  ContextPoolConfig cfg;
  cfg.num_contexts = 2;
  cfg.oversubscription = 1.5;
  const ContextPool pool(exec, cfg);
  ASSERT_EQ(exec.stream_count(), 8);

  const dnn::Network net = dnn::resnet18();
  const dnn::CostModel cost = dnn::CostModel::calibrated();
  const dnn::StagePlan stages = dnn::partition_into_stages(net, cost, 6);
  int stage_ends = 0;
  constexpr int kFrames = 32;
  for (int frame = 0; frame < kFrames; ++frame) {
    for (StreamId s = 0; s < exec.stream_count(); ++s) {
      for (const auto& stage : stages.stages) {
        exec.enqueue_batch(s, dnn::stage_kernels(net, cost, stage),
                           [&stage_ends](SimTime) { ++stage_ends; });
      }
    }
  }

  // Steps completion events until `hits` of them found their running set
  // memoised. A miss (a running set not seen before) calls compute_shares,
  // which allocates its result; hits must allocate nothing.
  struct Window {
    int hits = 0;
    int misses = 0;
    int solo = 0;  // events fired with fewer than two kernels running
    std::size_t hit_allocations = 0;
  };
  const auto step_until = [&](int hits) {
    Window w;
    while (w.hits < hits && engine.has_pending()) {
      if (exec.running_kernel_count() < 2) ++w.solo;
      const std::size_t memo = exec.share_memo_size();
      const std::size_t before = g_allocations;
      engine.step();
      if (exec.share_memo_size() != memo) {
        ++w.misses;
        continue;
      }
      ++w.hits;
      w.hit_allocations += g_allocations - before;
    }
    return w;
  };

  const Window warmup = step_until(200);
  EXPECT_EQ(warmup.solo, 0);
  const int stage_ends_before = stage_ends;
  const Window w = step_until(1000);
  EXPECT_EQ(w.hits, 1000);
  EXPECT_EQ(w.solo, 0);
  EXPECT_EQ(w.hit_allocations, 0u)
      << "over " << w.hits << " contended completion events";
  // Streams drift against each other, so a new running set still turns up
  // now and then; it must stay rare.
  EXPECT_LE(50 * w.misses, w.hits);
  // Stage-end callbacks fired inside the window too.
  EXPECT_GT(stage_ends, stage_ends_before);
}

/// A job loop on one stream: each stage's completion dispatches the next
/// stage program, wrapping around, as the SGPRS scheduler does for a task
/// whose stages keep landing on the same idle stream.
struct LoneStream {
  Executor& exec;
  StreamId stream;
  const std::vector<KernelProgram>& stages;
  int stage_ends = 0;

  void dispatch(int stage) {
    exec.enqueue_program(stream, stages[stage], /*tag=*/7,
                         [this, stage](SimTime) {
                           ++stage_ends;
                           const int n = static_cast<int>(stages.size());
                           dispatch((stage + 1) % n);
                         });
  }
};

TEST(SoloChainAllocations, ProgramStagesOnALoneStreamAllocateNothing) {
  sim::Engine engine;
  Executor exec(engine, rtx2080ti(), SpeedupModel::rtx2080ti(),
                SharingParams{});
  ContextPoolConfig cfg;
  cfg.num_contexts = 2;
  cfg.oversubscription = 1.5;
  const ContextPool pool(exec, cfg);

  const dnn::Network net = dnn::resnet18();
  const dnn::CostModel cost = dnn::CostModel::calibrated();
  const dnn::StagePlan plan = dnn::partition_into_stages(net, cost, 6);
  std::vector<KernelProgram> stages;
  for (const auto& stage : plan.stages) {
    stages.emplace_back(dnn::stage_kernels(net, cost, stage));
  }
  LoneStream job{exec, pool.at(0).low_streams.front(), stages};
  job.dispatch(0);

  // Warm-up: two frames fill the memo, the queue and the calendar slab.
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(engine.step());
  const int ends_before = job.stage_ends;
  const std::size_t events_before = engine.processed_count();
  const std::size_t before = g_allocations;
  constexpr int kStages = 600;  // 100 frames
  for (int i = 0; i < kStages; ++i) ASSERT_TRUE(engine.step());
  EXPECT_EQ(g_allocations - before, 0u) << "over " << kStages << " stages";
  // One chain event per stage, each dispatching the next stage.
  EXPECT_EQ(job.stage_ends - ends_before, kStages);
  EXPECT_EQ(engine.processed_count() - events_before,
            static_cast<std::size_t>(kStages));
}

}  // namespace
}  // namespace sgprs::gpu
