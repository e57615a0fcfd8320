#include "cluster/placer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "gpu/device.hpp"
#include "gpu/sharing.hpp"
#include "gpu/speedup.hpp"

namespace sgprs::cluster {
namespace {

using common::SimTime;

// Analytical capacities for the two device classes, 2 contexts x 4 streams
// at half the device (the shapes the cluster layer builds by default).
rt::PoolCapacityModel capacity_of(int total_sms, int sm_per_ctx) {
  return rt::pool_capacity(gpu::SpeedupModel::rtx2080ti(),
                           gpu::SharingParams{}, total_sms, 2, sm_per_ctx,
                           4);
}

PlacerDevice small_device() {
  PlacerDevice d;
  d.mem_bytes = gpu::rtx2080ti().mem_bytes;
  d.total_warps = gpu::rtx2080ti().total_warps();
  d.pool_sms = 34;
  d.capacity = capacity_of(68, 34);
  return d;
}

PlacerDevice big_device() {
  PlacerDevice d;
  d.mem_bytes = gpu::rtx3090().mem_bytes;
  d.total_warps = gpu::rtx3090().total_warps();
  d.pool_sms = 41;
  d.capacity = capacity_of(82, 41);
  return d;
}

/// Synthetic periodic task whose offered work rate is `frac` of
/// `capacity.work_rate`. Profiled at both fleet pool sizes so admission's
/// WCET lookups succeed on either device class. A heavy task (large frac)
/// serially occupies one slot for several periods, so saturation tests
/// relax the deadline via `deadline_factor` to make the *utilization*
/// budget the binding constraint.
rt::Task make_task(int id, const std::string& name, double frac,
                   const rt::PoolCapacityModel& capacity,
                   double deadline_factor = 1.0) {
  const double period_sec = 1.0 / 30.0;
  rt::Task t;
  t.id = id;
  t.name = name;
  t.period = SimTime::from_sec(period_sec);
  t.deadline = SimTime::from_sec(period_sec * deadline_factor);
  const auto speedup = gpu::SpeedupModel::rtx2080ti();
  // utilization_test: offered = total_at(ref) * speedup(conv, ref) / period
  // with ref = smallest profiled SM size (34 here).
  const double wcet_sec = frac * capacity.work_rate * period_sec /
                          speedup.speedup(gpu::OpClass::kConv, 34.0);
  auto cls = std::make_shared<rt::TaskClass>();
  cls->wcet.sm_sizes = {34, 41};  // one stage
  cls->wcet.stage_times.assign(2, SimTime::from_sec(wcet_sec));
  cls->wcet.totals = cls->wcet.stage_times;
  t.task_class = std::move(cls);
  return t;
}

TEST(Placer, RoundRobinRotatesAcrossDevices) {
  Placer p({small_device(), small_device(), small_device()},
           PlacementPolicy::kRoundRobin);
  const auto cap = small_device().capacity;
  std::vector<int> assigned;
  for (int i = 0; i < 6; ++i) {
    const auto d = p.place(make_task(i, "t" + std::to_string(i), 0.05, cap));
    ASSERT_TRUE(d.has_value());
    assigned.push_back(*d);
  }
  EXPECT_EQ(assigned, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(Placer, LeastLoadedEvensOutUtilizationFraction) {
  Placer p({small_device(), big_device()}, PlacementPolicy::kLeastLoaded);
  const auto cap = small_device().capacity;
  // Empty fleet: tie on 0 utilization, stable order picks device 0.
  EXPECT_EQ(p.place(make_task(0, "a", 0.1, cap)), std::optional<int>(0));
  // Device 0 now carries load; the empty device 1 must win.
  EXPECT_EQ(p.place(make_task(1, "b", 0.1, cap)), std::optional<int>(1));
  // Fractions stay within one task of each other as placements continue.
  for (int i = 2; i < 10; ++i) {
    ASSERT_TRUE(p.place(make_task(i, "t" + std::to_string(i), 0.1, cap)));
  }
  EXPECT_NEAR(p.utilization(0), p.utilization(1), 0.11);
}

TEST(Placer, BinPackBestFitPrefersSmallestSpareThatAdmits) {
  Placer p({small_device(), big_device()},
           PlacementPolicy::kBinPackUtilization);
  const auto cap = small_device().capacity;
  // Best-fit: the 2080 Ti has the smaller absolute spare capacity and the
  // task fits there, so binpack must start on device 0 — the 3090 is held
  // back for work that needs it. (The pre-fix placer sorted spare
  // *descending*; that behaviour lives on as kWorstFit below.)
  EXPECT_EQ(p.place(make_task(0, "a", 0.05, cap)), std::optional<int>(0));
  // It keeps filling the smaller device while tasks still fit there.
  EXPECT_EQ(p.place(make_task(1, "b", 0.05, cap)), std::optional<int>(0));
  EXPECT_EQ(p.task_count(1), 0);
  // A task too big for the 2080 Ti's remaining headroom spills to the
  // 3090 instead of being rejected.
  EXPECT_EQ(p.place(make_task(2, "big", 0.9, cap, 10.0)),
            std::optional<int>(1));
}

TEST(Placer, WorstFitPrefersLargestSpareCapacity) {
  Placer p({small_device(), big_device()}, PlacementPolicy::kWorstFit);
  const auto cap = small_device().capacity;
  // The 3090 has the larger absolute spare capacity, so — unlike
  // least-loaded, which ties on fraction and picks device 0 — worst-fit
  // must start on device 1.
  EXPECT_EQ(p.place(make_task(0, "a", 0.05, cap)), std::optional<int>(1));
  // It keeps choosing the bigger device until its spare dips below the
  // 2080 Ti's.
  EXPECT_GT(p.task_count(1), 0);
}

TEST(Placer, RemainingCapacityClampsAtZeroUnderForcedOverload) {
  const auto cap = small_device().capacity;
  Placer p({small_device()}, PlacementPolicy::kRoundRobin,
           /*admission_margin=*/0.0);
  // Disabled-margin placement accepts far more work than the device has
  // capacity for; the spare-capacity readout must saturate at zero, not
  // go negative (regression: it used to return budget - offered raw).
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        p.place(make_task(i, "t" + std::to_string(i), 0.5, cap)).has_value());
  }
  EXPECT_GT(p.utilization(0), 1.0);
  EXPECT_EQ(p.remaining_capacity(0), 0.0);
}

TEST(Placer, HashAffinityIsDeterministicAndSticky) {
  const auto cap = small_device().capacity;
  Placer p({small_device(), small_device(), small_device(), small_device()},
           PlacementPolicy::kHashAffinity);
  const auto home = p.place(make_task(0, "camera-7", 0.01, cap));
  ASSERT_TRUE(home.has_value());
  // Same name keeps landing on the same device.
  for (int i = 1; i < 5; ++i) {
    EXPECT_EQ(p.place(make_task(i, "camera-7", 0.01, cap)), home);
  }
  // And a fresh placer reproduces the mapping (stable hash, not
  // std::hash).
  Placer q({small_device(), small_device(), small_device(), small_device()},
           PlacementPolicy::kHashAffinity);
  EXPECT_EQ(q.place(make_task(0, "camera-7", 0.01, cap)), home);
}

TEST(Placer, HashAffinityProbesPastSaturatedHome) {
  const auto cap = small_device().capacity;
  Placer p({small_device(), small_device()}, PlacementPolicy::kHashAffinity);
  // Saturate the home device of "hot" with heavy relaxed-deadline tasks.
  const auto home = p.place(make_task(0, "hot", 0.45, cap, 10.0));
  ASSERT_TRUE(home.has_value());
  ASSERT_EQ(p.place(make_task(1, "hot", 0.45, cap, 10.0)), home);
  // The next "hot" task no longer fits at home (utilization would reach
  // 1.35 > margin) but must spill to the other device instead of being
  // rejected.
  const auto spill = p.place(make_task(2, "hot", 0.45, cap, 10.0));
  ASSERT_TRUE(spill.has_value());
  EXPECT_NE(*spill, *home);
}

TEST(Placer, RejectsWhenEveryDeviceIsSaturated) {
  const auto cap = small_device().capacity;
  Placer p({small_device(), small_device()}, PlacementPolicy::kLeastLoaded);
  int placed = 0;
  int i = 0;
  // Each task demands 45% of a device (relaxed deadline so utilization is
  // the binding test): two fit per device, the fifth finds no room.
  while (placed < 32) {
    const auto d =
        p.place(make_task(i, "t" + std::to_string(i), 0.45, cap, 10.0));
    ++i;
    if (!d) break;
    ++placed;
  }
  EXPECT_EQ(placed, 4);
  EXPECT_EQ(p.rejected(), 1);
  // Once saturated, equally heavy tasks keep being rejected on every
  // policy's probe order.
  EXPECT_FALSE(
      p.place(make_task(i + 1, "late", 0.45, cap, 10.0)).has_value());
  EXPECT_EQ(p.rejected(), 2);
}

TEST(Placer, HeterogeneousPoolCapacityModelsPerContextSizes) {
  // The list-based pool_capacity overload (used by Cluster for explicit
  // per-context SM limits) must model the actual layout, not context 0
  // replicated — a {10, 58} pool clearly outperforms uniform {10, 10}.
  const auto speedup = gpu::SpeedupModel::rtx2080ti();
  const auto lopsided = rt::pool_capacity(speedup, gpu::SharingParams{}, 68,
                                          std::vector<int>{10, 58}, 4);
  const auto tiny = rt::pool_capacity(speedup, gpu::SharingParams{}, 68,
                                      std::vector<int>{10, 10}, 4);
  const auto uniform = rt::pool_capacity(speedup, gpu::SharingParams{}, 68,
                                         2, 34, 4);
  EXPECT_GT(lopsided.work_rate, tiny.work_rate);
  // And the uniform overload is exactly the list overload's special case.
  const auto uniform_as_list = rt::pool_capacity(
      speedup, gpu::SharingParams{}, 68, std::vector<int>{34, 34}, 4);
  EXPECT_DOUBLE_EQ(uniform.work_rate, uniform_as_list.work_rate);
  EXPECT_EQ(uniform.total_slots, uniform_as_list.total_slots);
}

TEST(Placer, HashAffinityRehomesWhenTheFleetGrows) {
  // Pins the documented caveat (docs/online-fleet.md): homes are
  // fnv1a(name) % active_devices, so adding a device re-homes names to
  // the new modulus — a grown placer agrees with a placer *built* at the
  // larger size, not with its own earlier assignments.
  const auto cap = small_device().capacity;
  const std::vector<std::string> names = {"cam-0", "cam-1", "cam-2",
                                          "cam-3", "cam-7", "lidar-1"};
  Placer grown({small_device(), small_device(), small_device(),
                small_device()},
               PlacementPolicy::kHashAffinity);
  Placer fresh5({small_device(), small_device(), small_device(),
                 small_device(), small_device()},
                PlacementPolicy::kHashAffinity);
  grown.add_device(small_device());
  int id = 0;
  bool any_rehomed = false;
  for (const auto& name : names) {
    Placer fresh4({small_device(), small_device(), small_device(),
                   small_device()},
                  PlacementPolicy::kHashAffinity);
    const auto old_home = fresh4.place(make_task(id, name, 0.01, cap));
    const auto new_home = grown.place(make_task(id, name, 0.01, cap));
    const auto want = fresh5.place(make_task(id, name, 0.01, cap));
    ASSERT_TRUE(new_home.has_value());
    EXPECT_EQ(new_home, want) << name;
    any_rehomed = any_rehomed || new_home != old_home;
    ++id;
  }
  // At least one of these names maps differently mod 5 than mod 4 —
  // the mid-run re-homing the docs warn about.
  EXPECT_TRUE(any_rehomed);
}

/// `mem_gib` of the device's 11 GiB budget, `frac` of its work rate.
rt::Task make_mem_task(int id, const std::string& name, double frac,
                       double mem_gib, const rt::PoolCapacityModel& cap,
                       double deadline_factor = 1.0) {
  rt::Task t = make_task(id, name, frac, cap, deadline_factor);
  t.mem_bytes = static_cast<std::int64_t>(mem_gib * (1ll << 30));
  return t;
}

PlacerDevice small_device_with_mem(double mem_gib) {
  PlacerDevice d = small_device();
  d.mem_bytes = static_cast<std::int64_t>(mem_gib * (1ll << 30));
  return d;
}

TEST(Placer, BinPackMemoryPacksFewerDevicesThanLeastLoaded) {
  const auto cap = small_device().capacity;
  const auto fleet = [] {
    return std::vector<PlacerDevice>{
        small_device_with_mem(4.0), small_device_with_mem(4.0),
        small_device_with_mem(4.0), small_device_with_mem(4.0)};
  };
  Placer packer(fleet(), PlacementPolicy::kBinPackMemory);
  Placer spreader(fleet(), PlacementPolicy::kLeastLoaded);
  // Eight 1 GiB streams with negligible compute: memory is the binding
  // dimension.
  for (int i = 0; i < 8; ++i) {
    const std::string name = "t" + std::to_string(i);
    ASSERT_TRUE(packer.place(make_mem_task(i, name, 0.01, 1.0, cap)));
    ASSERT_TRUE(spreader.place(make_mem_task(i, name, 0.01, 1.0, cap)));
  }
  auto devices_used = [](const Placer& p) {
    int used = 0;
    for (int d = 0; d < p.num_devices(); ++d) {
      used += p.task_count(d) > 0 ? 1 : 0;
    }
    return used;
  };
  // Same admitted work, strictly fewer devices touched: best-fit memory
  // packing fills a device before opening the next one.
  EXPECT_EQ(devices_used(packer), 2);
  EXPECT_EQ(devices_used(spreader), 4);
  // And every placement respected the per-device budget.
  for (int d = 0; d < packer.num_devices(); ++d) {
    EXPECT_GE(packer.remaining_mem_bytes(d), 0);
  }
}

TEST(Placer, PlaceExClassifiesMemoryExhaustionAsOom) {
  const auto cap = small_device().capacity;
  Placer p({small_device_with_mem(2.0)}, PlacementPolicy::kLeastLoaded);
  ASSERT_TRUE(p.place(make_mem_task(0, "a", 0.05, 1.5, cap)).has_value());
  // Plenty of compute headroom, no memory: oom.
  const PlaceResult oom = p.place_ex(make_mem_task(1, "b", 0.05, 1.0, cap));
  EXPECT_FALSE(oom.device.has_value());
  EXPECT_TRUE(oom.oom);
  EXPECT_EQ(p.rejected(), 1);
  EXPECT_EQ(p.oom_rejected(), 1);
  // Plenty of memory, no compute: a plain rejection, not oom. (Relaxed
  // deadlines so the utilization budget, not response time, binds.)
  Placer q({small_device_with_mem(8.0)}, PlacementPolicy::kLeastLoaded);
  ASSERT_TRUE(q.place(make_mem_task(0, "a", 0.45, 1.0, cap, 10.0)).has_value());
  ASSERT_TRUE(q.place(make_mem_task(1, "b", 0.45, 1.0, cap, 10.0)).has_value());
  const PlaceResult util =
      q.place_ex(make_mem_task(2, "c", 0.45, 1.0, cap, 10.0));
  EXPECT_FALSE(util.device.has_value());
  EXPECT_FALSE(util.oom);
  EXPECT_EQ(q.oom_rejected(), 0);
}

TEST(Placer, PlaceBatchMatchesSequentialPlacementForStableOrderPolicies) {
  // One batched call must produce exactly the placements sequential
  // place_ex() calls produce: in input order for every policy, except that
  // an unforced binpack batch is placed best-fit-decreasing (heaviest
  // first over its binding dimension, ties in input order). A forced batch
  // keeps input order and matches sequential force_place().
  const auto cap = small_device().capacity;
  std::vector<rt::Task> tasks;
  // Lightest first, and more work and memory than the three devices hold,
  // so best-fit-decreasing places differently from input order and some
  // tasks are rejected (on memory, too).
  for (int i = 0; i < 12; ++i) {
    tasks.push_back(make_task(i, "t" + std::to_string(i % 5),
                              0.04 + 0.05 * i, cap, /*deadline_factor=*/10.0));
    tasks.back().mem_bytes = (i + 1) * (std::int64_t{3} << 28);
  }
  for (const PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastLoaded,
        PlacementPolicy::kBinPackUtilization, PlacementPolicy::kBinPackMemory,
        PlacementPolicy::kWorstFit, PlacementPolicy::kHashAffinity}) {
    for (const bool force : {false, true}) {
      SCOPED_TRACE(std::string(to_string(policy)) +
                   (force ? " forced" : ""));
      std::vector<std::size_t> order(tasks.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      if (!force && policy == PlacementPolicy::kBinPackUtilization) {
        std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
          return rt::task_work_rate(tasks[a]) > rt::task_work_rate(tasks[b]);
        });
      } else if (!force && policy == PlacementPolicy::kBinPackMemory) {
        std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
          return tasks[a].mem_bytes > tasks[b].mem_bytes;
        });
      }
      Placer seq({small_device(), big_device(), small_device()}, policy);
      Placer batch({small_device(), big_device(), small_device()}, policy);
      std::vector<PlaceResult> want(tasks.size());
      for (std::size_t i : order) {
        if (force) {
          want[i].device = seq.force_place(tasks[i]);
        } else {
          want[i] = seq.place_ex(tasks[i]);
        }
      }
      const std::vector<PlaceResult> got = batch.place_batch(tasks, force);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].device, want[i].device) << "task " << i;
        EXPECT_EQ(got[i].oom, want[i].oom) << "task " << i;
      }
      EXPECT_EQ(batch.rejected(), seq.rejected());
      EXPECT_EQ(batch.oom_rejected(), seq.oom_rejected());
      for (int d = 0; d < batch.num_devices(); ++d) {
        EXPECT_EQ(batch.task_count(d), seq.task_count(d)) << "device " << d;
      }
      if (!std::is_sorted(order.begin(), order.end())) {
        // The reordering matters: input-order placement lands elsewhere.
        Placer in_order({small_device(), big_device(), small_device()},
                        policy);
        bool differs = false;
        for (std::size_t i = 0; i < tasks.size(); ++i) {
          differs = differs || in_order.place(tasks[i]) != want[i].device;
        }
        EXPECT_TRUE(differs);
      }
    }
  }
}

TEST(Placer, PlaceBatchBinPackPlacesDecreasing) {
  // The binpack batch path is CASE-style best-fit-*decreasing*: items are
  // placed heaviest-first, so a big task is never stranded by small ones
  // that could have fit anywhere.
  const auto cap = small_device().capacity;
  auto fleet = [] {
    return std::vector<PlacerDevice>{small_device_with_mem(4.0),
                                     small_device_with_mem(4.0)};
  };
  // {1, 1, 3, 3} GiB onto two 4 GiB devices, submitted small-first:
  // sequential best-fit strands the last 3 GiB task (1 GiB holes on both
  // devices), BFD packs {3,1} + {3,1} and fits everything.
  std::vector<rt::Task> tasks;
  tasks.push_back(make_mem_task(0, "s0", 0.01, 1.0, cap));
  tasks.push_back(make_mem_task(1, "s1", 0.01, 1.0, cap));
  tasks.push_back(make_mem_task(2, "b0", 0.01, 3.0, cap));
  tasks.push_back(make_mem_task(3, "b1", 0.01, 3.0, cap));
  Placer seq(fleet(), PlacementPolicy::kBinPackMemory);
  int seq_placed = 0;
  for (const auto& t : tasks) seq_placed += seq.place(t) ? 1 : 0;
  EXPECT_EQ(seq_placed, 3);
  EXPECT_EQ(seq.oom_rejected(), 1);
  Placer batch(fleet(), PlacementPolicy::kBinPackMemory);
  const auto results = batch.place_batch(tasks);
  for (const auto& r : results) {
    EXPECT_TRUE(r.device.has_value());
    EXPECT_FALSE(r.oom);
  }
  EXPECT_EQ(batch.oom_rejected(), 0);
}

TEST(Placer, DisabledAdmissionPlacesEverything) {
  const auto cap = small_device().capacity;
  Placer p({small_device()}, PlacementPolicy::kRoundRobin,
           /*admission_margin=*/0.0);
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(
        p.place(make_task(i, "t" + std::to_string(i), 0.5, cap)).has_value());
  }
  EXPECT_EQ(p.rejected(), 0);
  EXPECT_EQ(p.task_count(0), 40);
  EXPECT_GT(p.utilization(0), 1.0);  // load tracking still works
}

}  // namespace
}  // namespace sgprs::cluster
