// Context pool: the pre-created, possibly over-subscribed set of MPS
// contexts that gives SGPRS its "seamless, zero-configuration partition
// switch" (paper Sections I/IV). All contexts are created once, offline;
// at run time a stage can be dispatched to any of them with no
// reconfiguration cost.
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

  const std::vector<PooledContext>& contexts() const { return contexts_; }
  int size() const { return static_cast<int>(contexts_.size()); }
  const PooledContext& at(int i) const { return contexts_.at(i); }

  /// SMs per context for a device/pool combination (exposed for tests).
  static int sms_per_context(int device_total_sms, int num_contexts,
                             double oversubscription);

  /// The SM limit of each context the constructor creates, in order, for
  /// callers that need a pool's shape without building one.
  static std::vector<int> sm_limits(int device_total_sms,
                                    const ContextPoolConfig& cfg);

 private:
  std::vector<PooledContext> contexts_;
};

}  // namespace sgprs::gpu
