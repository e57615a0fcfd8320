#include "cluster/placer.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "common/check.hpp"

namespace sgprs::cluster {

namespace {

/// FNV-1a over the task name: stable across platforms and standard-library
/// implementations, unlike std::hash (affinity must not move between
/// builds).
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

Placer::Placer(std::vector<PlacerDevice> devices, PlacementPolicy policy,
               double admission_margin, double occupancy_threshold)
    : policy_(policy),
      margin_(admission_margin),
      occupancy_threshold_(occupancy_threshold) {
  SGPRS_CHECK_MSG(!devices.empty(), "placer needs at least one device");
  SGPRS_CHECK_MSG(admission_margin <= 1.0,
                  "admission margin is a fraction of capacity");
  SGPRS_CHECK_MSG(occupancy_threshold > 0.0 && occupancy_threshold <= 1.0,
                  "occupancy threshold is a fraction of warp capacity");
  devices_.reserve(devices.size());
  for (auto& d : devices) add_device(std::move(d));
}

int Placer::add_device(PlacerDevice device, bool active) {
  SGPRS_CHECK(device.capacity.work_rate > 0.0);
  rt::ResourceBudget budget;
  budget.mem_bytes = device.mem_bytes;
  budget.total_warps = device.total_warps;
  budget.occupancy_threshold = occupancy_threshold_;
  // A disabled margin still needs a valid controller for load tracking.
  rt::AdmissionController controller(device.capacity, device.pool_sms,
                                     margin_ > 0.0 ? margin_ : 1.0, budget);
  devices_.push_back(
      DeviceState{std::move(device), std::move(controller), active});
  const int d = static_cast<int>(devices_.size()) - 1;
  refile(d);
  return d;
}

void Placer::set_device_active(int d, bool active) {
  devices_.at(d).active = active;
}

int Placer::active_devices() const {
  int n = 0;
  for (const auto& d : devices_) n += d.active ? 1 : 0;
  return n;
}

bool Placer::remove_task(int d, int task_id) {
  if (!devices_.at(d).controller.remove(task_id)) return false;
  refile(d);
  return true;
}

double Placer::utilization(int d) const {
  return devices_.at(d).controller.current_utilization();
}

double Placer::remaining_capacity(int d) const {
  const DeviceState& ds = devices_.at(d);
  const double budget =
      (margin_ > 0.0 ? margin_ : 1.0) * ds.info.capacity.work_rate;
  const double offered =
      ds.controller.current_utilization() * ds.info.capacity.work_rate;
  // force_place / disabled-margin overload can push offered past the
  // budget; spare capacity is never negative.
  return std::max(0.0, budget - offered);
}

std::int64_t Placer::remaining_mem_bytes(int d) const {
  const DeviceState& ds = devices_.at(d);
  return std::max<std::int64_t>(
      0, ds.info.mem_bytes - ds.controller.mem_used());
}

int Placer::task_count(int d) const {
  return static_cast<int>(devices_.at(d).controller.admitted().size());
}

const std::vector<rt::Task>& Placer::placed_on(int d) const {
  return devices_.at(d).controller.admitted();
}

double Placer::order_key(int d) const {
  switch (policy_) {
    case PlacementPolicy::kLeastLoaded:
      return utilization(d);
    case PlacementPolicy::kBinPackUtilization:
      return remaining_capacity(d);
    case PlacementPolicy::kWorstFit:
      return -remaining_capacity(d);
    case PlacementPolicy::kBinPackMemory:
      return static_cast<double>(remaining_mem_bytes(d));
    case PlacementPolicy::kRoundRobin:
    case PlacementPolicy::kHashAffinity:
      break;
  }
  return 0.0;
}

int Placer::cyclic_start(const rt::Task& task) const {
  switch (policy_) {
    case PlacementPolicy::kRoundRobin:
      return rr_next_;
    case PlacementPolicy::kHashAffinity:
      return static_cast<int>(fnv1a(task.name) % num_devices());
    case PlacementPolicy::kLeastLoaded:
    case PlacementPolicy::kBinPackUtilization:
    case PlacementPolicy::kBinPackMemory:
    case PlacementPolicy::kWorstFit:
      break;
  }
  return -1;
}

void Placer::refile(int d) {
  if (policy_ == PlacementPolicy::kRoundRobin ||
      policy_ == PlacementPolicy::kHashAffinity) {
    return;  // cyclic walks keep no index
  }
  DeviceState& ds = devices_[d];
  by_key_.erase({ds.key, d});  // absent when `d` was just added
  ds.key = order_key(d);
  by_key_.emplace(ds.key, d);
}

template <typename Admit>
std::optional<int> Placer::first_admitting(const rt::Task& task,
                                           Admit admit) {
  const int n = num_devices();
  std::optional<int> chosen;
  if (const int start = cyclic_start(task); start >= 0) {
    // Expected O(1) to the first admitting device, not O(devices).
    for (int i = 0, d = start; i < n; ++i, d = d + 1 == n ? 0 : d + 1) {
      if (devices_[d].active && admit(d)) {
        chosen = d;
        break;
      }
    }
  } else {
    // A rejected probe leaves the admitted set as it was, so no key moves
    // during the walk; only the chosen device is re-filed after it.
    for (const auto& entry : by_key_) {
      const int d = entry.second;
      if (devices_[d].active && admit(d)) {
        chosen = d;
        break;
      }
    }
  }
  if (!chosen) return chosen;
  refile(*chosen);
  if (policy_ == PlacementPolicy::kRoundRobin) rr_next_ = (*chosen + 1) % n;
  return chosen;
}

std::optional<int> Placer::force_place(const rt::Task& task) {
  const auto chosen = first_admitting(task, [&](int d) {
    devices_[d].controller.force_admit(task);
    return true;
  });
  if (!chosen) ++rejected_;
  return chosen;
}

std::optional<int> Placer::place(const rt::Task& task) {
  return place_ex(task).device;
}

PlaceResult Placer::place_ex(const rt::Task& task) {
  bool saw_oom = false;
  const auto chosen = first_admitting(task, [&](int d) {
    auto& controller = devices_[d].controller;
    if (margin_ <= 0.0) {
      controller.force_admit(task);  // admission control disabled
      return true;
    }
    const rt::AdmitOutcome out = controller.try_admit_ex(task);
    saw_oom = saw_oom || out == rt::AdmitOutcome::kRejectedMemory;
    return out == rt::AdmitOutcome::kAdmitted;
  });
  if (chosen) return PlaceResult{chosen, false};
  ++rejected_;
  if (saw_oom) ++oom_rejected_;
  return PlaceResult{std::nullopt, saw_oom};
}

std::vector<PlaceResult> Placer::place_batch(
    const std::vector<rt::Task>& tasks, bool force) {
  std::vector<std::size_t> item(tasks.size());
  std::iota(item.begin(), item.end(), std::size_t{0});
  // Best-fit *decreasing*: the bin-packing policies consider streams
  // largest-first over their binding dimension, which is what makes
  // best-fit pack tightly. Other policies, and forced batches, keep
  // arrival order.
  if (!force && policy_ == PlacementPolicy::kBinPackUtilization) {
    std::vector<double> w(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      w[i] = rt::task_work_rate(tasks[i]);
    }
    std::stable_sort(item.begin(), item.end(),
                     [&](std::size_t a, std::size_t b) { return w[a] > w[b]; });
  } else if (!force && policy_ == PlacementPolicy::kBinPackMemory) {
    std::stable_sort(item.begin(), item.end(), [&](std::size_t a,
                                                   std::size_t b) {
      return tasks[a].mem_bytes > tasks[b].mem_bytes;
    });
  }
  std::vector<PlaceResult> results(tasks.size());
  for (std::size_t idx : item) {
    if (force) {
      results[idx].device = force_place(tasks[idx]);
    } else {
      results[idx] = place_ex(tasks[idx]);
    }
  }
  return results;
}

}  // namespace sgprs::cluster
