// bench_placer — placement-control-plane throughput: one place_batch()
// call (the CASE-style batched decision the initial-placement and
// autoscaler drain paths take) against the equivalent per-event place_ex()
// loop, on a memory-constrained 16-device fleet under best-fit-decreasing
// bin packing.
//
// Both modes place the same deterministic mixed task set (seeded rng) on a
// fresh placer per trial, so the measured delta is the decision loop
// itself: cached ordering keys + one sort per batch vs. a full candidate
// re-sort per task. Also reports the admitted/oom split of each mode —
// BFD admits what sequential best-fit strands, and that quality gap is as
// much the point as the speed.
// Writes BENCH_placer.json (schema: docs/benchmarks.md).
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cluster/placer.hpp"
#include "figure_common.hpp"
#include "gpu/device.hpp"
#include "gpu/sharing.hpp"
#include "gpu/speedup.hpp"

namespace {

using namespace sgprs;
using common::SimTime;

constexpr int kDevices = 16;
constexpr int kTasksPerTrial = 256;
constexpr int kTrials = 60;
constexpr double kDeviceMemGiB = 4.0;

cluster::PlacerDevice device() {
  cluster::PlacerDevice d;
  d.spec = gpu::rtx2080ti();
  d.spec.mem_bytes = static_cast<std::int64_t>(kDeviceMemGiB * (1ll << 30));
  d.pool_sms = 34;
  d.capacity = rt::pool_capacity(gpu::SpeedupModel::rtx2080ti(),
                                 gpu::SharingParams{}, 68, 2, 34, 4);
  return d;
}

cluster::Placer fresh_placer() {
  return cluster::Placer(
      std::vector<cluster::PlacerDevice>(kDevices, device()),
      cluster::PlacementPolicy::kBinPackMemory,
      /*admission_margin=*/0.95, /*occupancy_threshold=*/0.9);
}

/// Mixed fleet workload: mostly small streams with a heavy tail, total
/// demand slightly past fleet memory (~68 GiB offered vs 64 GiB) so memory
/// is the binding dimension, the probe loop walks real candidate lists,
/// and best-fit-decreasing has stranding to avoid rather than a fleet it
/// can trivially fill.
std::vector<rt::Task> make_tasks(const rt::PoolCapacityModel& cap) {
  std::mt19937 rng(20240807);
  std::uniform_real_distribution<double> frac(0.005, 0.03);
  std::uniform_real_distribution<double> mem_small(0.1, 0.2);
  std::uniform_real_distribution<double> mem_big(1.0, 3.0);
  const auto speedup = gpu::SpeedupModel::rtx2080ti();
  std::vector<rt::Task> tasks;
  tasks.reserve(kTasksPerTrial);
  for (int i = 0; i < kTasksPerTrial; ++i) {
    const double period_sec = 1.0 / 30.0;
    rt::Task t;
    t.id = i;
    t.name = "s" + std::to_string(i);
    t.period = SimTime::from_sec(period_sec);
    t.deadline = t.period;
    const double wcet_sec = frac(rng) * cap.work_rate * period_sec /
                            speedup.speedup(gpu::OpClass::kConv, 34.0);
    auto cls = std::make_shared<rt::TaskClass>();
    cls->wcet.sm_sizes = {34};
    cls->wcet.stage_times = {SimTime::from_sec(wcet_sec)};
    cls->wcet.totals = cls->wcet.stage_times;
    t.task_class = std::move(cls);
    const double gib = (i % 16 == 0) ? mem_big(rng) : mem_small(rng);
    t.mem_bytes = static_cast<std::int64_t>(gib * (1ll << 30));
    t.warps = 32 + (i % 5) * 16;
    tasks.push_back(std::move(t));
  }
  return tasks;
}

struct ModeResult {
  double wall_s = 0.0;
  long long placed = 0;
  long long oom = 0;
  double placed_gib = 0.0;
  long long placed_bigs = 0;
};

double placed_gib_of(const cluster::Placer& p) {
  std::int64_t bytes = 0;
  for (int d = 0; d < p.num_devices(); ++d) {
    for (const auto& t : p.placed_on(d)) bytes += t.mem_bytes;
  }
  return static_cast<double>(bytes) / static_cast<double>(1ll << 30);
}

/// Heavy-tail tenants (>= 1 GiB) that found a home — the tasks sequential
/// best-fit strands behind small-stream fragmentation.
long long placed_bigs_of(const cluster::Placer& p) {
  long long bigs = 0;
  for (int d = 0; d < p.num_devices(); ++d) {
    for (const auto& t : p.placed_on(d)) bigs += t.mem_bytes >= (1ll << 30);
  }
  return bigs;
}

}  // namespace

int main() {
  const auto tasks = make_tasks(device().capacity);

  // Warm-up trial per mode pages everything in before timing.
  { auto p = fresh_placer(); (void)p.place_batch(tasks); }
  {
    auto p = fresh_placer();
    for (const auto& t : tasks) (void)p.place_ex(t);
  }

  ModeResult per_event;
  ModeResult batched;
  for (int trial = 0; trial < kTrials; ++trial) {
    {
      auto p = fresh_placer();
      const auto t0 = std::chrono::steady_clock::now();
      for (const auto& t : tasks) (void)p.place_ex(t);
      const auto t1 = std::chrono::steady_clock::now();
      per_event.wall_s += std::chrono::duration<double>(t1 - t0).count();
      per_event.placed += kTasksPerTrial - p.rejected();
      per_event.oom += p.oom_rejected();
      per_event.placed_gib += placed_gib_of(p);
      per_event.placed_bigs += placed_bigs_of(p);
    }
    {
      auto p = fresh_placer();
      const auto t0 = std::chrono::steady_clock::now();
      (void)p.place_batch(tasks);
      const auto t1 = std::chrono::steady_clock::now();
      batched.wall_s += std::chrono::duration<double>(t1 - t0).count();
      batched.placed += kTasksPerTrial - p.rejected();
      batched.oom += p.oom_rejected();
      batched.placed_gib += placed_gib_of(p);
      batched.placed_bigs += placed_bigs_of(p);
    }
  }

  const double n = static_cast<double>(kTrials) * kTasksPerTrial;
  const double per_event_rate = n / per_event.wall_s;
  const double batched_rate = n / batched.wall_s;
  std::cout << "placer bench (" << kDevices << " devices x "
            << kTasksPerTrial << " tasks x " << kTrials << " trials, "
            << "binpack_memory)\n"
            << "  per-event: " << per_event.wall_s << " s ("
            << per_event_rate / 1e6 << " M placements/s), "
            << per_event.placed / kTrials << " placed ("
            << per_event.placed_gib / kTrials << " GiB, "
            << per_event.placed_bigs / kTrials << "/16 heavy), "
            << per_event.oom / kTrials << " oom per trial\n"
            << "  batched:   " << batched.wall_s << " s ("
            << batched_rate / 1e6 << " M placements/s), "
            << batched.placed / kTrials << " placed ("
            << batched.placed_gib / kTrials << " GiB, "
            << batched.placed_bigs / kTrials << "/16 heavy), "
            << batched.oom / kTrials << " oom per trial\n";

  bench::BenchReport report("placer");
  report.add("placer_per_event_wall_s", per_event.wall_s, "s");
  report.add("placer_batched_wall_s", batched.wall_s, "s");
  report.add("placer_per_event_placements_per_s", per_event_rate,
             "placements/s");
  report.add("placer_batched_placements_per_s", batched_rate,
             "placements/s");
  report.add("placer_batched_speedup", per_event.wall_s / batched.wall_s,
             "ratio");
  report.add("placer_per_event_placed_per_trial",
             static_cast<double>(per_event.placed) / kTrials, "tasks");
  report.add("placer_batched_placed_per_trial",
             static_cast<double>(batched.placed) / kTrials, "tasks");
  report.add("placer_per_event_oom_per_trial",
             static_cast<double>(per_event.oom) / kTrials, "tasks");
  report.add("placer_batched_oom_per_trial",
             static_cast<double>(batched.oom) / kTrials, "tasks");
  // BFD's quality edge is mass, not count: the heavy tenants sequential
  // best-fit strands all land, so more of the fleet's VRAM does work.
  report.add("placer_per_event_placed_gib_per_trial",
             per_event.placed_gib / kTrials, "GiB");
  report.add("placer_batched_placed_gib_per_trial",
             batched.placed_gib / kTrials, "GiB");
  report.add("placer_per_event_heavy_placed_per_trial",
             static_cast<double>(per_event.placed_bigs) / kTrials, "tasks");
  report.add("placer_batched_heavy_placed_per_trial",
             static_cast<double>(batched.placed_bigs) / kTrials, "tasks");
  report.write();
  return 0;
}
