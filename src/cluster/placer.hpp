// Task → device assignment with online multi-resource admission control.
//
// The placer keeps an analytical load model per device (rt/analysis.hpp:
// saturated pool capacity, utilization test, heuristic response-time
// estimate) plus the device's physical budget (memory bytes, resident-warp
// occupancy). Each placement walks the devices in a policy-defined order
// and lands on the first one whose augmented task set still passes every
// admission test; when no device passes, the task is rejected — and when
// memory was the sole blocker anywhere, the rejection is classified OOM.
// Round-robin and hash placement walk cyclically from their start device,
// one device at a time. The load-keyed policies walk an ordered index of
// (key, device) pairs that is re-filed only for the device whose load a
// call changed, so a placement sorts nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "cluster/placement.hpp"
#include "rt/analysis.hpp"
#include "rt/task.hpp"

namespace sgprs::cluster {

/// Static per-device facts the placer reasons about.
struct PlacerDevice {
  /// The device's memory and resident-warp budgets (gpu::DeviceSpec).
  std::int64_t mem_bytes = 0;
  std::int64_t total_warps = 0;
  rt::PoolCapacityModel capacity;
  /// Reference context SM size used for WCET lookups in the response-time
  /// estimate; tasks must be profiled at this size.
  int pool_sms = 0;
};

/// Outcome of one placement attempt. `oom` is true only for failed
/// placements where at least one active device rejected on memory alone
/// (the stream would have fit by compute) — the fleet's OOM signal.
struct PlaceResult {
  std::optional<int> device;
  bool oom = false;
};

class Placer {
 public:
  /// `admission_margin` is the utilization fraction admission may fill
  /// (rt::AdmissionController semantics); <= 0 disables admission control
  /// entirely — every placement succeeds, load ordering still applies.
  /// `occupancy_threshold` is the admissible fraction of each device's
  /// resident-warp capacity (CASE exemplar: 0.9).
  Placer(std::vector<PlacerDevice> devices, PlacementPolicy policy,
         double admission_margin = 0.95, double occupancy_threshold = 0.9);

  /// Places one task. Returns the chosen device index, or std::nullopt
  /// when no device admits it (counted in rejected()). Inactive devices
  /// (drained or still warming up) are never candidates.
  std::optional<int> place(const rt::Task& task);

  /// As place(), but also classifies a failed placement as OOM when
  /// memory (not compute) was the blocking resource.
  PlaceResult place_ex(const rt::Task& task);

  /// Places a batch of tasks (CASE-style batched scheduling): place_ex, or
  /// force_place when `force` is set, per task. Results align with the
  /// input order. Unforced, the bin-packing policies first order the batch
  /// largest-first over their binding dimension (best-fit *decreasing*);
  /// every other case places in input order, exactly as per-task calls.
  std::vector<PlaceResult> place_batch(const std::vector<rt::Task>& tasks,
                                       bool force = false);

  /// Places ignoring the admission test (fleet overload control with
  /// admission_test off): the first active device in policy order takes
  /// the task unconditionally, load accounting stays accurate. Returns
  /// std::nullopt only when no device is active.
  std::optional<int> force_place(const rt::Task& task);

  /// Registers a device added to the fleet mid-run (autoscaling). Returns
  /// its index. The device starts inactive when `active` is false (warm-up
  /// latency: capacity exists but takes no placements yet).
  int add_device(PlacerDevice device, bool active = true);

  /// Gates a device in or out of placement. Deactivating never moves
  /// already-placed tasks — drain/re-place decisions belong to the caller.
  void set_device_active(int d, bool active);
  bool device_active(int d) const { return devices_.at(d).active; }
  int active_devices() const;

  /// Releases the admission capacity task `task_id` holds on device `d`
  /// (stream retired or re-placed). Returns false if it was not there.
  bool remove_task(int d, int task_id);

  int num_devices() const { return static_cast<int>(devices_.size()); }
  PlacementPolicy policy() const { return policy_; }
  int rejected() const { return rejected_; }
  /// Failed placements where memory was the sole blocker (subset of
  /// rejected()).
  int oom_rejected() const { return oom_rejected_; }

  /// Offered utilization fraction of device `d` (offered work rate over
  /// saturated capacity; 0 when nothing is placed).
  double utilization(int d) const;
  /// Absolute spare admissible work rate of device `d` (SM-work/s),
  /// clamped at 0 — force_place and disabled-margin overload can push the
  /// offered load past the budget, but spare capacity is never negative.
  double remaining_capacity(int d) const;
  /// Unreserved device memory of `d` in bytes, clamped at 0.
  std::int64_t remaining_mem_bytes(int d) const;
  int task_count(int d) const;
  const std::vector<rt::Task>& placed_on(int d) const;

 private:
  /// Admission testing and the per-device placed list both live in the
  /// rt::AdmissionController (push/pop probing, no task-set copies).
  struct DeviceState {
    PlacerDevice info;
    rt::AdmissionController controller;
    bool active = true;
    /// The key this device is filed under in by_key_ (key-ordered
    /// policies only).
    double key = 0.0;
  };

  /// Walk key of device `d` under a key-ordered policy, ascending: the
  /// best-fit family probes the least spare first (utilization, spare
  /// work-rate or remaining memory), worst-fit the most spare first (its
  /// spare work-rate negated).
  double order_key(int d) const;
  /// Where round-robin and hash placement start their cyclic walk over
  /// the devices, or -1 for the key-ordered policies.
  int cyclic_start(const rt::Task& task) const;
  /// Re-files device `d` in by_key_ under its current order_key; called
  /// whenever its admitted set changes. No-op for the cyclic policies.
  void refile(int d);
  /// Offers `task` to each active device in policy order until
  /// `admit(device)` takes it; returns that device (re-filing it and
  /// advancing round-robin past it), or std::nullopt. `admit` changes a
  /// device's admitted set only when it returns true. Round-robin and
  /// hash visit (start + i) % n; the key-ordered policies walk by_key_.
  template <typename Admit>
  std::optional<int> first_admitting(const rt::Task& task, Admit admit);

  std::vector<DeviceState> devices_;
  /// (order_key, device index) of every device, active or not, under a
  /// key-ordered policy: ascending key, ties by index — the order a
  /// stable sort of the indices by key gives. Empty for the cyclic
  /// policies.
  std::set<std::pair<double, int>> by_key_;
  PlacementPolicy policy_;
  double margin_;
  double occupancy_threshold_;
  int rr_next_ = 0;
  int rejected_ = 0;
  int oom_rejected_ = 0;
};

}  // namespace sgprs::cluster
