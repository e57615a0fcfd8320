// SM sharing model: how concurrent kernels split the device.
//
// Three layers, mirroring how MPS + stream priorities behave (DESIGN.md §2.1):
//   1. Inside a context, concurrent kernels space-share the context's SM
//      allocation, weighted by stream priority.
//   2. Across contexts, if the summed allocation of *active* contexts
//      exceeds the physical SM count, every kernel's progress rate scales by
//      (total/demand)^beta (over-subscribed MPS time-multiplexes SM
//      residency; beta < 1 because co-resident kernels hide each other's
//      memory latency, so multiplexing is better than proportional — this
//      is precisely why over-subscription pays off on real GPUs).
//   3. Many concurrent clients thrash shared resources (L2, DRAM, the MPS
//      scheduler): a mild 1/(1 + gamma*(K-1)) factor on all rates.
#pragma once

#include <vector>

#include "gpu/op_class.hpp"
#include "gpu/speedup.hpp"

namespace sgprs::gpu {

struct SharingParams {
  /// Relative SM share of a kernel launched on a high-priority stream vs a
  /// low-priority stream inside the same context.
  double high_priority_weight = 2.0;
  double low_priority_weight = 1.0;
  /// Exponent on the (total/demand) over-subscription factor (layer 2).
  /// 1.0 = strictly proportional time-slicing; < 1.0 credits latency hiding
  /// between co-resident kernels. Calibrated against the paper's
  /// over-subscription orderings (Figs. 3a/4a).
  double contention_exponent = 0.50;
  /// Client-count interference coefficient (layer 3 above).
  double interference_gamma = 0.050;
  /// Extra penalty per active context beyond the first when the pool is
  /// over-subscribed; models MPS context-switch thrash. Applied as
  /// 1/(1 + kappa * (active_contexts - 1) * max(0, oversub - 1)).
  double oversub_thrash_kappa = 0.12;

  bool operator==(const SharingParams&) const = default;
};

/// One concurrently-running kernel, as seen by the allocator.
struct ShareRequest {
  int context = 0;      // context index
  double weight = 1.0;  // priority weight within the context
  OpClass op = OpClass::kOther;
};

struct ShareGrant {
  double sms = 0.0;   // SMs granted (fractional)
  double rate = 0.0;  // progress rate in (1-SM work)/second
};

/// Pure allocation function (separable from the executor for testing).
/// `context_sms[i]` is context i's SM allocation; requests reference
/// contexts by index. Returns one grant per request, in order.
std::vector<ShareGrant> compute_shares(const SpeedupModel& model,
                                       int device_total_sms,
                                       const std::vector<int>& context_sms,
                                       const std::vector<ShareRequest>& reqs,
                                       const SharingParams& params);

}  // namespace sgprs::gpu
