// Context pool: the pre-created, possibly over-subscribed set of MPS
// contexts that gives SGPRS its "seamless, zero-configuration partition
// switch" (paper Sections I/IV). All contexts are created once, offline;
// at run time a stage can be dispatched to any of them with no
// reconfiguration cost. Every device of one spec therefore holds the same
// pool, so cluster::Cluster lays it out once per device type and builds
// each executor of the type from the class the layout implies.
#pragma once

#include <vector>

#include "gpu/executor.hpp"

namespace sgprs::gpu {

struct ContextPoolConfig {
  /// Number of contexts (np). The paper evaluates 2 and 3.
  int num_contexts = 2;
  /// Over-subscription level: each context gets
  /// round(total_sms / num_contexts * oversubscription) SMs, so the pool's
  /// summed allocation may exceed the device (the paper's "SGPRS_os").
  double oversubscription = 1.0;
  /// Heterogeneous pool: when non-empty this list of per-context SM limits
  /// overrides num_contexts/oversubscription entirely. The paper's context
  /// pool CP = {cp_1..cp_np} permits per-context sizes; uniform pools are
  /// just the special case its evaluation uses.
  std::vector<int> explicit_sm_limits;
  /// Streams per context (paper Section IV-B3: two high + two low).
  int high_streams_per_context = 2;
  int low_streams_per_context = 2;
};

struct PooledContext {
  ContextId ctx = -1;
  int sm_limit = 0;
  std::vector<StreamId> high_streams;
  std::vector<StreamId> low_streams;
};

class ContextPool {
 public:
  /// Creates all contexts and streams on `exec` per `cfg`.
  ContextPool(Executor& exec, const ContextPoolConfig& cfg);

  /// The layout the constructor above gives a fresh executor of a device
  /// with `device_total_sms` SMs, created on none: each context, then its
  /// high and its low streams, numbered in that creation order.
  ContextPool(int device_total_sms, const ContextPoolConfig& cfg);

  const std::vector<PooledContext>& contexts() const { return contexts_; }
  int size() const { return static_cast<int>(contexts_.size()); }
  const PooledContext& at(int i) const { return contexts_.at(i); }

  /// The class of an executor whose contexts and streams are exactly this
  /// layout's: what Executor(engine, memo) is built from. The layout must
  /// number its contexts and streams from 0 in creation order (checked),
  /// as the layout constructor and a pool created on a fresh executor do.
  DeviceClass device_class(int device_total_sms, const SpeedupModel& speedup,
                           const SharingParams& sharing) const;

  /// SMs per context for a device/pool combination (exposed for tests).
  static int sms_per_context(int device_total_sms, int num_contexts,
                             double oversubscription);

  /// The SM limit of each context the constructors lay out, in order, for
  /// callers that need a pool's shape without building one.
  static std::vector<int> sm_limits(int device_total_sms,
                                    const ContextPoolConfig& cfg);

 private:
  std::vector<PooledContext> contexts_;
};

}  // namespace sgprs::gpu
