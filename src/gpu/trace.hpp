// Observer interface for the Executor's kernel start/end callbacks. Only
// tests attach one — the reference-executor differentials, ExecutorTest and
// sgprs_alloc_tests' boundary windows — to assert on exact kernel
// interleavings without touching executor internals.
#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "gpu/kernel.hpp"

namespace sgprs::gpu {

using common::SimTime;

/// Implemented by test recorders; all callbacks are invoked from the
/// simulation loop (single-threaded, in simulation-time order).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// Kernel begins executing (enters its launch-overhead phase).
  virtual void on_kernel_start(SimTime t, int context, int stream,
                               const KernelDesc& k) = 0;
  /// Kernel finished all work.
  virtual void on_kernel_end(SimTime t, int context, int stream,
                             const KernelDesc& k) = 0;
};

}  // namespace sgprs::gpu
