// Observer interface for kernel lifecycle events (tracing / accounting).
//
// The Executor emits kernel start/end callbacks; obs::KernelTracer (a
// SpanSink's per-device kernel track) turns them into Chrome/Perfetto
// spans, and tests use them to assert on exact kernel interleavings
// without touching executor internals.
#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "gpu/kernel.hpp"

namespace sgprs::gpu {

using common::SimTime;

/// Implemented by trace recorders; all callbacks are invoked from the
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
