// Allocation gate for gpu::Executor's completion paths and stream clones.
//
// The executor memoises the grants of contended running sets and keeps the
// completion path's buffers as members, so once a device's running sets
// have been seen, a contended completion — an event or a step of a
// contended chain — touches no allocator. A lone stream running shared stage programs replays them
// from the solo-step memo, so once each program has run, dispatching a
// stage and its chain event touch no allocator either. Both memos belong
// to the device class, so an executor attached to a memo another executor
// of its class warmed allocates nothing from its first event on. A stream
// cloned from a prototype shares its rt::TaskClass, so cloning one and
// admitting it allocates only name buffers and admission-list growth.
// Schedulers keep per-stream state by the runner's dense stream slot, so
// admitting streams allocates bytes in proportion to the streams, however
// far apart their task ids are. A cluster keeps one record per distinct
// device spec and its executors keep none, so a fleet of one spec holds
// one copy of it, however many devices it has.
// This binary replaces the global operator new to count every allocation
// in its process, which is why it is its own executable rather than part
// of sgprs_tests.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "dnn/builders.hpp"
#include "dnn/partition.hpp"
#include "fleet/timeline.hpp"
#include "gpu/context_pool.hpp"
#include "gpu/executor.hpp"
#include "metrics/collector.hpp"
#include "rt/analysis.hpp"
#include "rt/naive_scheduler.hpp"
#include "rt/sgprs_scheduler.hpp"
#include "sim/engine.hpp"

namespace {

std::size_t g_allocations = 0;
std::size_t g_allocated_bytes = 0;  // requested sizes, summed
// Allocations of exactly g_watched_size bytes (0 = watch nothing).
std::size_t g_watched_size = 0;
std::size_t g_watched_allocations = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocations;
  g_allocated_bytes += n;
  if (n == g_watched_size) ++g_watched_allocations;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_alloc_or_throw(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++g_allocations;
  g_allocated_bytes += n;
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

/// Watches contended boundary instants through the trace sink: an instant
/// is a time at which at least one kernel ends, and it lasts until the
/// next such time. An instant in which the share memo grew held a miss (a
/// running set not seen before, whose compute_shares call allocates its
/// result); any other is a hit, and the allocations in it are the hit's.
/// Without a bound each instant is one engine event; a contended chain
/// steps many instants inside one event, and they count the same.
class BoundaryInstants final : public TraceSink {
 public:
  struct Window {
    int hits = 0;
    int misses = 0;
    int solo = 0;  // instants with fewer than two kernels running
    std::size_t hit_allocations = 0;
  };

  explicit BoundaryInstants(const Executor& exec) : exec_(exec) {}

  /// Counts the next `hits` hit instants (and the misses among them). An
  /// instant already under way counts in the new window.
  void open(int hits) {
    w_ = Window{};
    target_ = hits;
  }
  bool full() const { return w_.hits >= target_; }
  const Window& window() const { return w_; }

  void on_kernel_start(SimTime, int, int, const KernelDesc&) override {
    ++running_;
  }
  void on_kernel_end(SimTime t, int, int, const KernelDesc&) override {
    if (!in_instant_ || t != instant_) {
      close_instant();
      in_instant_ = true;
      instant_ = t;
      solo_ = running_ < 2;
      memo_ = exec_.share_memo_size();
      allocations_ = g_allocations;
    }
    --running_;
  }

 private:
  void close_instant() {
    if (!in_instant_ || full()) return;
    if (solo_) ++w_.solo;
    if (exec_.share_memo_size() != memo_) {
      ++w_.misses;
    } else {
      ++w_.hits;
      w_.hit_allocations += g_allocations - allocations_;
    }
  }

  const Executor& exec_;
  Window w_;
  int target_ = 0;
  int running_ = 0;
  bool in_instant_ = false;
  SimTime instant_;
  bool solo_ = false;
  std::size_t memo_ = 0;
  std::size_t allocations_ = 0;
};

/// The paper's pool: 2 contexts at over-subscription 1.5, two high- and two
/// low-priority streams each, every queue preloaded with ResNet18 stage
/// kernels so no enqueue happens while allocations are counted. With
/// `stepped`, the executor steps its contended boundaries up to the next
/// stage end (no input ever arrives), so most instants are chain steps
/// inside one event.
void expect_contended_completions_allocate_nothing(bool stepped) {
  sim::Engine engine;
  Executor exec(engine, rtx2080ti(), SpeedupModel::rtx2080ti(),
                SharingParams{});
  ContextPoolConfig cfg;
  cfg.num_contexts = 2;
  cfg.oversubscription = 1.5;
  const ContextPool pool(exec, cfg);
  ASSERT_EQ(exec.stream_count(), 8);
  if (stepped) exec.set_input_bound([&engine] { return engine.horizon(); });
  BoundaryInstants windows(exec);
  exec.set_trace_sink(&windows);

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

  // Steps events until `hits` boundary instants found their running set
  // memoised; hits must allocate nothing.
  const auto step_until = [&](int hits) {
    windows.open(hits);
    while (!windows.full() && engine.has_pending()) engine.step();
    return windows.window();
  };

  const auto warmup = step_until(200);
  EXPECT_EQ(warmup.solo, 0);
  const int stage_ends_before = stage_ends;
  const std::size_t events_before = engine.processed_count();
  const auto w = step_until(1000);
  const std::size_t events = engine.processed_count() - events_before;
  EXPECT_EQ(w.hits, 1000);
  EXPECT_EQ(w.solo, 0);
  EXPECT_EQ(w.hit_allocations, 0u)
      << "over " << w.hits << " contended boundary instants";
  // Streams drift against each other, so a new running set still turns up
  // now and then; it must stay rare.
  EXPECT_LE(50 * w.misses, w.hits);
  // Stage-end callbacks fired inside the window too.
  const int window_stage_ends = stage_ends - stage_ends_before;
  EXPECT_GT(window_stage_ends, 0);
  if (stepped) {
    // At most one event per stage end (each holds its callbacks), none
    // for the boundaries between.
    EXPECT_LE(events, static_cast<std::size_t>(window_stage_ends) + 1);
  } else {
    EXPECT_GE(events, 1000u);
  }
}

TEST(ContendedCompletionAllocations, SteadyStateAllocatesNothing) {
  expect_contended_completions_allocate_nothing(/*stepped=*/false);
}

TEST(ContendedCompletionAllocations, SteppedBoundariesAllocateNothing) {
  expect_contended_completions_allocate_nothing(/*stepped=*/true);
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

/// The paper's pool on `exec`: 2 contexts at over-subscription 1.5, two
/// high- and two low-priority streams each.
ContextPool paper_pool(Executor& exec) {
  ContextPoolConfig cfg;
  cfg.num_contexts = 2;
  cfg.oversubscription = 1.5;
  return ContextPool(exec, cfg);
}

/// One frame of `stages` on every stream in `streams`, queued up front;
/// each stage end counts into `stage_ends`.
void queue_frame(Executor& exec, const std::vector<StreamId>& streams,
                 const std::vector<KernelProgram>& stages, int& stage_ends) {
  for (StreamId s : streams) {
    for (const auto& stage : stages) {
      exec.enqueue_program(s, stage, /*tag=*/7,
                           [&stage_ends](SimTime) { ++stage_ends; });
    }
  }
}

TEST(DeviceClassMemoAllocations, ExecutorJoiningAWarmMemoAllocatesNothing) {
  // Executor `a` warms a shared memo with one frame on a lone stream (solo
  // chains), then one frame on all eight streams (contended completions).
  // Executor `b`, of the same class and attached to the same memo, then
  // replays both: every lookup hits, and its events allocate nothing.
  const dnn::Network net = dnn::resnet18();
  const dnn::CostModel cost = dnn::CostModel::calibrated();
  const dnn::StagePlan plan = dnn::partition_into_stages(net, cost, 6);
  std::vector<KernelProgram> stages;
  for (const auto& stage : plan.stages) {
    stages.emplace_back(dnn::stage_kernels(net, cost, stage));
  }

  sim::Engine engine;
  Executor a(engine, rtx2080ti(), SpeedupModel::rtx2080ti(), SharingParams{});
  Executor b(engine, rtx2080ti(), SpeedupModel::rtx2080ti(), SharingParams{});
  const ContextPool pool_a = paper_pool(a);
  const ContextPool pool_b = paper_pool(b);
  DeviceClassMemo memo(a.device_class());
  a.attach_memo(memo);
  b.attach_memo(memo);
  const std::vector<StreamId> lone = {pool_a.at(0).low_streams.front()};
  std::vector<StreamId> every;
  for (StreamId s = 0; s < a.stream_count(); ++s) every.push_back(s);
  const std::vector<StreamId>& all = every;

  int stage_ends = 0;
  for (Executor* exec : {&a, &b}) {
    const bool warm = exec == &b;
    SCOPED_TRACE(warm ? "joining executor" : "warming executor");
    const std::size_t share_sets = memo.share_sets();
    const std::size_t solo_steps = memo.solo_step_count();
    for (const auto* streams : {&lone, &all}) {
      queue_frame(*exec, *streams, stages, stage_ends);
      const int ends_before = stage_ends;
      const std::size_t before = g_allocations;
      engine.run();
      const int ends = static_cast<int>(streams->size() * stages.size());
      EXPECT_EQ(stage_ends - ends_before, ends);
      if (warm) {
        EXPECT_EQ(g_allocations - before, 0u)
            << "over " << ends << " stages on " << streams->size()
            << " streams";
      }
    }
    if (warm) {
      EXPECT_EQ(memo.share_sets(), share_sets);
      EXPECT_EQ(memo.solo_step_count(), solo_steps);
    } else {
      EXPECT_GT(memo.share_sets(), 0u);
      EXPECT_GT(memo.solo_step_count(), 0u);
    }
  }
}

}  // namespace
}  // namespace sgprs::gpu

namespace sgprs::rt {
namespace {

/// Clones `proto` under each name and admits the clone through `admit`,
/// expecting exactly two allocations per clone: the clone's name buffer and
/// its stored copy's (the names are past the small-string buffer), plus
/// one whenever the admitted list grows.
template <typename Admit>
void expect_clones_allocate_only_names(const Task& proto,
                                       const AdmissionController& ctl,
                                       const std::vector<std::string>& names,
                                       Admit admit) {
  for (int i = 0; i < static_cast<int>(names.size()); ++i) {
    const std::size_t capacity = ctl.admitted().capacity();
    const std::size_t before = g_allocations;
    Task clone = proto;
    clone.id = i;
    clone.name = names[i];
    admit(clone);
    const std::size_t growth = ctl.admitted().capacity() != capacity ? 1 : 0;
    EXPECT_EQ(g_allocations - before, 2 + growth) << "clone " << i;
    ASSERT_EQ(ctl.admitted().size(), static_cast<std::size_t>(i) + 1);
    EXPECT_EQ(ctl.admitted().back().task_class, proto.task_class);
  }
}

TEST(TaskCloneAllocations, CloningAndAdmittingAStreamAllocatesOnlyItsName) {
  // The paper's pool (2 contexts of 51 SMs, 4 streams each) and a 6-stage
  // ResNet18 stream template at a rate the pool admits 32 times over.
  fleet::StreamTemplate tmpl;
  tmpl.name = "cam";
  tmpl.fps = 2.0;
  const Task proto = fleet::build_stream_task(tmpl, gpu::rtx2080ti(), {51});
  const PoolCapacityModel capacity =
      pool_capacity(gpu::SpeedupModel::rtx2080ti(), gpu::SharingParams{}, 68,
                    2, 51, 4);
  std::vector<std::string> names;
  for (int i = 0; i < 32; ++i) {
    names.push_back("camera-stream-with-a-long-name-" + std::to_string(i));
  }

  {
    SCOPED_TRACE("try_admit_ex: utilization and response-time tests");
    AdmissionController ctl(capacity, 51, 0.95);
    expect_clones_allocate_only_names(proto, ctl, names, [&](const Task& t) {
      EXPECT_EQ(ctl.try_admit_ex(t), AdmitOutcome::kAdmitted);
    });
  }
  {
    SCOPED_TRACE("force_admit: admission control off");
    AdmissionController ctl(capacity, 51, 0.95);
    expect_clones_allocate_only_names(
        proto, ctl, names, [&](const Task& t) { ctl.force_admit(t); });
  }
}

TEST(SchedulerAdmitAllocations, SparseTaskIdsAllocateBySlotNotById) {
  // 64 streams whose ids lie 100,000 apart, as on a device of a large
  // hash-placed fleet. Per-stream state is one small entry per slot, so
  // admitting them all takes about 1 KiB; vectors indexed by task id
  // would allocate some 50 MB per scheduler here.
  constexpr int kStreams = 64;
  constexpr int kIdStride = 100000;
  constexpr std::size_t kMaxBytes = 16 * 1024;
  fleet::StreamTemplate tmpl;
  tmpl.name = "cam";
  const Task proto = fleet::build_stream_task(tmpl, gpu::rtx2080ti(), {51});
  std::vector<Task> streams(kStreams, proto);
  for (int i = 0; i < kStreams; ++i) streams[i].id = i * kIdStride;

  sim::Engine engine;
  gpu::Executor exec(engine, gpu::rtx2080ti(), gpu::SpeedupModel::rtx2080ti(),
                     gpu::SharingParams{});
  gpu::ContextPoolConfig pc;
  pc.oversubscription = 1.5;  // 2 contexts of 51 SMs, as `proto` profiles
  gpu::ContextPool pool(exec, pc);
  metrics::Collector collector;
  SgprsScheduler sgprs(exec, pool, collector);
  NaiveScheduler naive(exec, pool, collector);
  for (Scheduler* sched : {static_cast<Scheduler*>(&sgprs),
                           static_cast<Scheduler*>(&naive)}) {
    SCOPED_TRACE(sched->name());
    const std::size_t before = g_allocated_bytes;
    for (int slot = 0; slot < kStreams; ++slot) {
      sched->admit(streams[slot], slot);
    }
    EXPECT_LE(g_allocated_bytes - before, kMaxBytes)
        << "bytes allocated admitting " << kStreams << " streams";
  }
}

}  // namespace
}  // namespace sgprs::rt

namespace sgprs::cluster {
namespace {

TEST(DeviceSpecAllocations, AFleetOfOneSpecHoldsOneCopyOfIt) {
  // A name far past the small-string buffer: each copy of the spec is one
  // allocation of its buffer's size, which nothing else here requests.
  gpu::DeviceSpec spec = gpu::rtx2080ti();
  spec.name = std::string(200, 'g');
  constexpr int kDevices = 64;
  ClusterConfig cfg;
  cfg.devices.assign(kDevices, spec);
  sim::Engine engine;
  metrics::Collector collector;

  g_watched_size = spec.name.size() + 1;
  g_watched_allocations = 0;
  Cluster fleet(engine, collector, std::move(cfg));
  EXPECT_LE(g_watched_allocations, 2u)
      << "spec copies building a " << kDevices << "-device cluster";
  g_watched_allocations = 0;
  fleet.add_device(spec);
  EXPECT_EQ(g_watched_allocations, 0u)
      << "spec copies adding a device of a known spec";
  g_watched_size = 0;
  EXPECT_EQ(fleet.device_spec(kDevices).name, spec.name);
}

}  // namespace
}  // namespace sgprs::cluster
