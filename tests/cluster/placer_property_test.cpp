// Property-based check of the placer: for every policy and ~100 random
// task streams, a placement must never land on a device whose augmented
// load fails the admission bound — the utilization of the chosen device
// stays within the margin after every single placement, and rejections
// happen only when no device admits the task.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "cluster/placer.hpp"
#include "common/rng.hpp"
#include "gpu/device.hpp"
#include "gpu/sharing.hpp"
#include "gpu/speedup.hpp"

namespace sgprs::cluster {
namespace {

using common::SimTime;

constexpr double kMargin = 0.9;
constexpr int kStreamsPerPolicy = 25;

rt::PoolCapacityModel capacity_of(int total_sms, int sm_per_ctx) {
  return rt::pool_capacity(gpu::SpeedupModel::rtx2080ti(),
                           gpu::SharingParams{}, total_sms, 2, sm_per_ctx, 4);
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

/// Synthetic task demanding `frac` of the small device's capacity, with a
/// relaxed deadline so the utilization budget is the binding admission
/// test (same construction as placer_test.cpp).
rt::Task make_task(int id, const std::string& name, double frac) {
  const double period_sec = 1.0 / 30.0;
  rt::Task t;
  t.id = id;
  t.name = name;
  t.period = SimTime::from_sec(period_sec);
  t.deadline = SimTime::from_sec(period_sec * 10.0);
  const auto speedup = gpu::SpeedupModel::rtx2080ti();
  const auto cap = capacity_of(68, 34);
  const double wcet_sec = frac * cap.work_rate * period_sec /
                          speedup.speedup(gpu::OpClass::kConv, 34.0);
  auto cls = std::make_shared<rt::TaskClass>();
  cls->wcet.sm_sizes = {34, 41};  // one stage
  cls->wcet.stage_times.assign(2, SimTime::from_sec(wcet_sec));
  cls->wcet.totals = cls->wcet.stage_times;
  t.task_class = std::move(cls);
  return t;
}

TEST(PlacerProperty, NoPlacementEverExceedsTheAdmissionBound) {
  const PlacementPolicy policies[] = {
      PlacementPolicy::kRoundRobin,          PlacementPolicy::kLeastLoaded,
      PlacementPolicy::kBinPackUtilization,  PlacementPolicy::kBinPackMemory,
      PlacementPolicy::kWorstFit,            PlacementPolicy::kHashAffinity};

  for (const auto policy : policies) {
    for (int stream = 0; stream < kStreamsPerPolicy; ++stream) {
      common::Rng rng(static_cast<std::uint64_t>(stream) * 131 +
                      static_cast<std::uint64_t>(policy) + 1);
      // 2-4 devices, mixed classes.
      std::vector<PlacerDevice> devices;
      const int n = static_cast<int>(rng.uniform_int(2, 4));
      for (int d = 0; d < n; ++d) {
        devices.push_back(rng.next_double() < 0.5 ? small_device()
                                                  : big_device());
      }
      Placer placer(devices, policy, kMargin);

      int placed = 0;
      int rejected = 0;
      const int offered = static_cast<int>(rng.uniform_int(10, 40));
      for (int i = 0; i < offered; ++i) {
        const double frac = rng.uniform(0.02, 0.5);
        const std::string name =
            "t" + std::to_string(rng.uniform_int(0, 6));  // hash collisions
        const auto chosen = placer.place(make_task(i, name, frac));
        if (!chosen) {
          ++rejected;
          continue;
        }
        ++placed;
        ASSERT_GE(*chosen, 0);
        ASSERT_LT(*chosen, placer.num_devices());
        // The property: the device that took the task still satisfies the
        // admission bound afterwards.
        EXPECT_LE(placer.utilization(*chosen), kMargin + 1e-9)
            << "policy " << to_string(policy) << " stream " << stream
            << " placement " << i;
      }
      EXPECT_EQ(placer.rejected(), rejected);
      int counted = 0;
      for (int d = 0; d < placer.num_devices(); ++d) {
        counted += placer.task_count(d);
        // No device, chosen or not, may ever sit above the bound.
        EXPECT_LE(placer.utilization(d), kMargin + 1e-9);
      }
      EXPECT_EQ(counted, placed);
    }
  }
}

TEST(PlacerProperty, MemoryAndOccupancyBudgetsHoldForEveryPolicy) {
  // ~200 seeded random fleets: whatever the policy and the mix of
  // footprints, no device ever holds more task memory than its mem_bytes
  // or more resident warps than threshold * total_warps, and every oom
  // rejection really had memory as a blocker somewhere.
  const PlacementPolicy policies[] = {
      PlacementPolicy::kRoundRobin,          PlacementPolicy::kLeastLoaded,
      PlacementPolicy::kBinPackUtilization,  PlacementPolicy::kBinPackMemory,
      PlacementPolicy::kWorstFit,            PlacementPolicy::kHashAffinity};
  constexpr double kOccupancy = 0.9;
  int fleets = 0;
  for (const auto policy : policies) {
    for (int stream = 0; stream < 34; ++stream) {
      ++fleets;
      common::Rng rng(static_cast<std::uint64_t>(stream) * 977 +
                      static_cast<std::uint64_t>(policy) * 13 + 5);
      std::vector<PlacerDevice> devices;
      std::vector<std::int64_t> mem_budget;
      std::vector<std::int64_t> warp_budget;
      const int n = static_cast<int>(rng.uniform_int(2, 5));
      for (int d = 0; d < n; ++d) {
        PlacerDevice dev =
            rng.next_double() < 0.5 ? small_device() : big_device();
        // Tight budgets (2-6 GiB) so memory actually binds.
        dev.mem_bytes =
            static_cast<std::int64_t>(rng.uniform_int(2, 6)) * (1ll << 30);
        devices.push_back(dev);
        mem_budget.push_back(dev.mem_bytes);
        warp_budget.push_back(dev.total_warps);
      }
      Placer placer(devices, policy, kMargin, kOccupancy);

      std::vector<std::int64_t> mem_used(devices.size(), 0);
      std::vector<std::int64_t> warps_used(devices.size(), 0);
      const int offered = static_cast<int>(rng.uniform_int(15, 45));
      for (int i = 0; i < offered; ++i) {
        rt::Task t = make_task(
            i, "t" + std::to_string(rng.uniform_int(0, 6)),
            rng.uniform(0.02, 0.3));
        t.mem_bytes = static_cast<std::int64_t>(
            rng.uniform(0.0, 2.5) * static_cast<double>(1ll << 30));
        t.warps = static_cast<std::int64_t>(rng.uniform_int(0, 400));
        const PlaceResult r = placer.place_ex(t);
        if (!r.device) continue;
        const int d = *r.device;
        mem_used[d] += t.mem_bytes;
        warps_used[d] += t.warps;
        ASSERT_LE(mem_used[d], mem_budget[d])
            << "policy " << to_string(policy) << " fleet " << stream;
        ASSERT_LE(static_cast<double>(warps_used[d]),
                  kOccupancy * static_cast<double>(warp_budget[d]) + 1e-9)
            << "policy " << to_string(policy) << " fleet " << stream;
        EXPECT_EQ(placer.remaining_mem_bytes(d), mem_budget[d] - mem_used[d]);
      }
      EXPECT_LE(placer.oom_rejected(), placer.rejected());
    }
  }
  EXPECT_EQ(fleets, 204);
}

TEST(PlacerProperty, RejectionImpliesNoDeviceCouldAdmit) {
  // Whenever the placer rejects, by construction every device must be
  // within `frac` of the margin — verify with a task small enough to fit
  // anywhere: it must always place while any device has visible headroom.
  for (int stream = 0; stream < 25; ++stream) {
    common::Rng rng(9000 + stream);
    Placer placer({small_device(), small_device()},
                  PlacementPolicy::kLeastLoaded, kMargin);
    for (int i = 0; i < 60; ++i) {
      const auto chosen = placer.place(make_task(i, "x", 0.3));
      if (chosen) continue;
      // Rejected: neither device can hold another 0.3 of load.
      for (int d = 0; d < placer.num_devices(); ++d) {
        EXPECT_GT(placer.utilization(d) + 0.3, kMargin - 1e-9);
      }
      break;
    }
  }
}

TEST(PlacerProperty, CrashRecoverCyclesKeepAccountingExact) {
  // ~200 seeded fleets through random crash / re-place / recover cycles:
  // the fault path's accounting contract at the placer level. A crash
  // releases the victim's whole reservation exactly once (task_count,
  // utilization and remaining memory all read empty afterwards — a
  // double-release would push remaining_mem_bytes past the budget),
  // re-placements only ever land on active devices, and no task id is
  // resident on two devices at once.
  const PlacementPolicy policies[] = {
      PlacementPolicy::kRoundRobin,          PlacementPolicy::kLeastLoaded,
      PlacementPolicy::kBinPackUtilization,  PlacementPolicy::kBinPackMemory,
      PlacementPolicy::kWorstFit,            PlacementPolicy::kHashAffinity};
  for (int seed = 0; seed < 200; ++seed) {
    common::Rng rng(31337 + static_cast<std::uint64_t>(seed) * 257);
    const auto policy = policies[seed % 6];
    std::vector<PlacerDevice> devices;
    std::vector<std::int64_t> mem_budget;
    const int n = static_cast<int>(rng.uniform_int(2, 4));
    for (int d = 0; d < n; ++d) {
      PlacerDevice dev =
          rng.next_double() < 0.5 ? small_device() : big_device();
      dev.mem_bytes =
          static_cast<std::int64_t>(rng.uniform_int(2, 6)) * (1ll << 30);
      devices.push_back(dev);
      mem_budget.push_back(dev.mem_bytes);
    }
    Placer placer(devices, policy, kMargin);

    int next_id = 0;
    const auto offer = [&](int count) {
      for (int i = 0; i < count; ++i) {
        rt::Task t = make_task(next_id, "t" + std::to_string(next_id % 6),
                               rng.uniform(0.02, 0.25));
        t.mem_bytes = static_cast<std::int64_t>(
            rng.uniform(0.0, 1.5) * static_cast<double>(1ll << 30));
        t.warps = static_cast<std::int64_t>(rng.uniform_int(0, 300));
        ++next_id;
        (void)placer.place_ex(t);
      }
    };
    // The full-fleet invariant, checked after every mutation: disjoint
    // residency and exact per-device memory accounting.
    std::vector<char> down(static_cast<std::size_t>(n), 0);
    const auto verify = [&] {
      std::set<int> seen;
      for (int d = 0; d < n; ++d) {
        std::int64_t mem = 0;
        for (const rt::Task& t : placer.placed_on(d)) {
          EXPECT_TRUE(seen.insert(t.id).second)
              << "task " << t.id << " resident on two devices (seed "
              << seed << ")";
          mem += t.mem_bytes;
        }
        EXPECT_EQ(placer.remaining_mem_bytes(d), mem_budget[d] - mem)
            << "device " << d << " seed " << seed;
        if (down[static_cast<std::size_t>(d)]) {
          EXPECT_EQ(placer.task_count(d), 0);
          EXPECT_DOUBLE_EQ(placer.utilization(d), 0.0);
        }
      }
    };

    offer(static_cast<int>(rng.uniform_int(8, 16)));
    verify();

    for (int step = 0; step < 6; ++step) {
      std::vector<int> active;
      std::vector<int> failed;
      for (int d = 0; d < n; ++d) {
        (down[static_cast<std::size_t>(d)] ? failed : active).push_back(d);
      }
      const bool crash = !failed.empty()
                             ? rng.next_double() < 0.5 && active.size() > 1
                             : active.size() > 1;
      if (crash) {
        const int victim = active[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(active.size()) - 1))];
        // Crash: orphan every resident task, then deactivate — the same
        // sequence the fleet runtime's crash_device performs.
        const std::vector<rt::Task> orphans = placer.placed_on(victim);
        for (const rt::Task& t : orphans) {
          EXPECT_TRUE(placer.remove_task(victim, t.id));
        }
        placer.set_device_active(victim, false);
        down[static_cast<std::size_t>(victim)] = 1;
        EXPECT_EQ(placer.task_count(victim), 0);
        EXPECT_DOUBLE_EQ(placer.utilization(victim), 0.0);
        EXPECT_EQ(placer.remaining_mem_bytes(victim), mem_budget[victim]);
        // Failover: re-offer the orphans; any that land must land on a
        // surviving device.
        for (const rt::Task& t : orphans) {
          const PlaceResult r = placer.place_ex(t);
          if (r.device) {
            EXPECT_NE(*r.device, victim);
            EXPECT_FALSE(down[static_cast<std::size_t>(*r.device)]);
          }
        }
      } else if (!failed.empty()) {
        const int back = failed[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(failed.size()) - 1))];
        placer.set_device_active(back, true);
        down[static_cast<std::size_t>(back)] = 0;
        EXPECT_EQ(placer.remaining_mem_bytes(back), mem_budget[back]);
      }
      offer(static_cast<int>(rng.uniform_int(0, 4)));
      verify();
    }
  }
}

TEST(PlacerProperty, DisabledAdmissionNeverRejects) {
  for (const auto policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastLoaded,
        PlacementPolicy::kBinPackUtilization, PlacementPolicy::kBinPackMemory,
        PlacementPolicy::kWorstFit, PlacementPolicy::kHashAffinity}) {
    Placer placer({small_device(), big_device()}, policy,
                  /*admission_margin=*/0.0);
    common::Rng rng(1234);
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(placer
                      .place(make_task(i, "t" + std::to_string(i % 5),
                                       rng.uniform(0.1, 0.8)))
                      .has_value());
    }
    EXPECT_EQ(placer.rejected(), 0);
  }
}

/// The placer's affinity hash (FNV-1a over the task name), so the test can
/// materialise the order hash placement walks.
std::uint64_t affinity_hash(const std::string& name) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(PlacerProperty, CyclicWalkChoosesAsTheMaterialisedOrder) {
  // Round-robin and hash placement walk (start + i) % n on demand. Over
  // 1000 devices, some inactive, some with too little memory and many
  // filling up, every placement must land where the materialised order
  // lands: the first active device in it that admits the task. Whether a
  // device admits is asked of a one-device placer mirroring it, which the
  // oracle then keeps in step.
  constexpr int kDevices = 1000;
  PlacerDevice base = small_device();
  for (const auto policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kHashAffinity}) {
    SCOPED_TRACE(to_string(policy));
    common::Rng rng(static_cast<std::uint64_t>(policy) + 77);
    std::vector<PlacerDevice> devices;
    std::vector<Placer> mirror;
    for (int d = 0; d < kDevices; ++d) {
      PlacerDevice dev = base;
      if (rng.next_double() < 0.1) dev.mem_bytes = 1ll << 28;  // 256 MiB
      devices.push_back(dev);
      mirror.emplace_back(std::vector<PlacerDevice>{dev}, policy, kMargin);
    }
    Placer placer(devices, policy, kMargin);
    std::vector<bool> active(kDevices, true);
    int rr = 0;
    int placed = 0;
    int probed_past_start = 0;
    for (int i = 0; i < 2400; ++i) {
      if (i % 100 == 0) {
        for (int d = 0; d < kDevices; ++d) {
          active[d] = rng.next_double() >= 0.1;
          placer.set_device_active(d, active[d]);
        }
      }
      rt::Task t = make_task(i, "t" + std::to_string(rng.uniform_int(0, 39)),
                             rng.uniform(0.1, 0.6));
      t.mem_bytes = static_cast<std::int64_t>(rng.uniform(0.0, 1.0) *
                                              static_cast<double>(1ll << 30));
      const bool force = i % 10 == 9;

      const int start =
          policy == PlacementPolicy::kRoundRobin
              ? rr
              : static_cast<int>(affinity_hash(t.name) % kDevices);
      std::vector<int> order(kDevices);
      for (int k = 0; k < kDevices; ++k) order[k] = (start + k) % kDevices;
      PlaceResult want;
      for (int d : order) {
        if (!active[d]) continue;
        if (force) {
          mirror[d].force_place(t);
          want.device = d;
          break;
        }
        const PlaceResult r = mirror[d].place_ex(t);
        if (r.device) {
          want.device = d;
          break;
        }
        want.oom = want.oom || r.oom;
      }
      if (want.device) want.oom = false;  // oom classifies rejections only
      if (want.device && policy == PlacementPolicy::kRoundRobin) {
        rr = (*want.device + 1) % kDevices;
      }

      PlaceResult got;
      if (force) {
        got.device = placer.force_place(t);
      } else {
        got = placer.place_ex(t);
      }
      ASSERT_EQ(got.device, want.device) << "task " << i;
      ASSERT_EQ(got.oom, want.oom) << "task " << i;
      placed += got.device ? 1 : 0;
      probed_past_start += got.device && *got.device != start ? 1 : 0;
    }
    // The walk really had to skip inactive and full devices.
    EXPECT_GT(probed_past_start, 500);
    EXPECT_GT(placed, 2000);
  }
}

TEST(PlacerProperty, KeyOrderedWalkChoosesAsTheMaterialisedOrder) {
  // The load-keyed policies walk an ordered device index that is re-filed
  // only for the device a call changed. Over 1000 mixed devices, with
  // admits, forced placements, removals and activation toggles, every
  // placement must land where a stable sort of freshly computed keys
  // lands: the first active device in it that admits the task (ties by
  // index). Keys and admission come from one-device placers mirroring
  // each device, which the oracle keeps in step.
  constexpr int kDevices = 1000;
  for (const auto policy :
       {PlacementPolicy::kLeastLoaded, PlacementPolicy::kBinPackUtilization,
        PlacementPolicy::kBinPackMemory, PlacementPolicy::kWorstFit}) {
    SCOPED_TRACE(to_string(policy));
    common::Rng rng(static_cast<std::uint64_t>(policy) + 91);
    std::vector<PlacerDevice> devices;
    std::vector<Placer> mirror;
    for (int d = 0; d < kDevices; ++d) {
      PlacerDevice dev = rng.next_double() < 0.2 ? big_device()
                                                 : small_device();
      if (rng.next_double() < 0.1) dev.mem_bytes = 1ll << 28;  // 256 MiB
      devices.push_back(dev);
      mirror.emplace_back(std::vector<PlacerDevice>{dev}, policy, kMargin);
    }
    const auto key_of = [&](int d) {
      switch (policy) {
        case PlacementPolicy::kLeastLoaded:
          return mirror[d].utilization(0);
        case PlacementPolicy::kBinPackMemory:
          return static_cast<double>(mirror[d].remaining_mem_bytes(0));
        default:
          return mirror[d].remaining_capacity(0);
      }
    };
    const bool descending = policy == PlacementPolicy::kWorstFit;

    Placer placer(devices, policy, kMargin);
    std::vector<bool> active(kDevices, true);
    std::vector<std::pair<int, int>> resident;  // (device, task id)
    int placed = 0;
    int removed = 0;
    int probed_past_first = 0;
    for (int i = 0; i < 2400; ++i) {
      if (i % 100 == 0) {
        for (int d = 0; d < kDevices; ++d) {
          active[d] = rng.next_double() >= 0.1;
          placer.set_device_active(d, active[d]);
        }
      }
      if (!resident.empty() && rng.next_double() < 0.3) {
        const std::size_t k = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<int>(resident.size()) - 1));
        const auto [d, id] = resident[k];
        resident.erase(resident.begin() + static_cast<std::ptrdiff_t>(k));
        ASSERT_TRUE(mirror[d].remove_task(0, id));
        ASSERT_TRUE(placer.remove_task(d, id));
        ++removed;
      }
      rt::Task t = make_task(i, "t" + std::to_string(i),
                             rng.uniform(0.1, 0.6));
      t.mem_bytes = static_cast<std::int64_t>(rng.uniform(0.0, 1.0) *
                                              static_cast<double>(1ll << 30));
      const bool force = i % 10 == 9;

      std::vector<double> key(kDevices);
      for (int d = 0; d < kDevices; ++d) key[d] = key_of(d);
      std::vector<int> order(kDevices);
      for (int d = 0; d < kDevices; ++d) order[d] = d;
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return descending ? key[a] > key[b] : key[a] < key[b];
      });
      PlaceResult want;
      int first_active = -1;
      for (int d : order) {
        if (!active[d]) continue;
        if (first_active < 0) first_active = d;
        if (force) {
          mirror[d].force_place(t);
          want.device = d;
          break;
        }
        const PlaceResult r = mirror[d].place_ex(t);
        if (r.device) {
          want.device = d;
          break;
        }
        want.oom = want.oom || r.oom;
      }
      if (want.device) want.oom = false;  // oom classifies rejections only

      PlaceResult got;
      if (force) {
        got.device = placer.force_place(t);
      } else {
        got = placer.place_ex(t);
      }
      ASSERT_EQ(got.device, want.device) << "task " << i;
      ASSERT_EQ(got.oom, want.oom) << "task " << i;
      if (got.device) {
        resident.emplace_back(*got.device, t.id);
        ++placed;
        probed_past_first += *got.device != first_active ? 1 : 0;
      }
    }
    // Streams really left, and the walk really had to skip devices that
    // did not admit.
    EXPECT_GT(removed, 500);
    EXPECT_GT(placed, 2000);
    EXPECT_GT(probed_past_first, 100);
  }
}

}  // namespace
}  // namespace sgprs::cluster
