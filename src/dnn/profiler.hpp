// Offline WCET profiler (paper Section IV-A2: "the WCETs of each task and
// its stages are measured offline").
//
// Two modes, which must agree (a test locks this):
//  * analytic  — closed-form stage time at m SMs from the cost/speedup model;
//  * simulated — actually runs the stage's kernels through a fresh Executor
//    with a single m-SM context and measures the elapsed simulation time,
//    exactly like profiling on real hardware in isolation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "dnn/network.hpp"
#include "dnn/partition.hpp"
#include "gpu/device.hpp"
#include "gpu/sharing.hpp"
#include "gpu/speedup.hpp"

namespace sgprs::dnn {

using common::SimTime;

/// Placement footprint of one stream: device memory for its working set
/// and the time-averaged resident-warp demand at its reference SM size.
/// Both feed multi-resource admission (cluster::Placer).
struct TaskFootprint {
  std::int64_t mem_bytes = 0;
  std::int64_t warps = 0;
};

/// Per-stage WCETs of one task at every SM size in the context pool, flat:
/// a lookup scans the few profiled sizes.
struct WcetTable {
  std::vector<int> sm_sizes;  // distinct, in profile (first-seen) order
  /// [stage × size]: isolated time of stage s at sm_sizes[k] is
  /// stage_times[s * sm_sizes.size() + k].
  std::vector<SimTime> stage_times;
  std::vector<SimTime> totals;  // whole network (sum over stages) per size

  SimTime stage_at(int stage, int sms) const;
  SimTime total_at(int sms) const;
  int stage_count() const {
    return sm_sizes.empty()
               ? 0
               : static_cast<int>(stage_times.size() / sm_sizes.size());
  }

 private:
  /// Index of `sms` in sm_sizes; CHECK-fails when it was not profiled.
  std::size_t size_index(int sms) const;
};

class Profiler {
 public:
  Profiler(gpu::DeviceSpec device, gpu::SpeedupModel speedup, CostModel cost)
      : device_(std::move(device)),
        speedup_(std::move(speedup)),
        cost_(cost) {}

  /// Isolated execution time of one layer at `sms` SMs (analytic).
  SimTime layer_time(const Layer& layer, int sms) const;

  /// Isolated execution time of a stage at `sms` SMs (analytic).
  SimTime stage_time(const Network& net, const std::vector<NodeId>& stage,
                     int sms) const;

  /// Builds the WCET table for a partitioned task at the given SM sizes.
  WcetTable profile(const Network& net, const StagePlan& plan,
                    const std::vector<int>& sm_sizes) const;

  /// Runs the stage through a real Executor in isolation and returns the
  /// measured makespan. Used to validate the analytic path.
  SimTime stage_time_simulated(const Network& net,
                               const std::vector<NodeId>& stage,
                               int sms) const;

  /// End-to-end network speedup at `sms` vs one SM (reproduces Fig. 1's
  /// "overall ResNet18" curve).
  double network_speedup(const Network& net, int sms) const;

  /// Memory + occupancy footprint of one stream of this network released
  /// at `period_sec` intervals and executing at `ref_sms` SMs:
  ///  * mem_bytes — fp32 weights (conv/linear) + peak live activations
  ///    along the topological order + a fixed per-stream runtime overhead;
  ///  * warps — per-layer resident warps (one per 32 output elements,
  ///    capped at the device's warp capacity) averaged over the period,
  ///    weighted by each layer's execution time at `ref_sms`.
  TaskFootprint footprint(const Network& net, int ref_sms,
                          double period_sec) const;

  const CostModel& cost_model() const { return cost_; }
  const gpu::SpeedupModel& speedup_model() const { return speedup_; }

 private:
  gpu::DeviceSpec device_;
  gpu::SpeedupModel speedup_;
  CostModel cost_;
};

}  // namespace sgprs::dnn
