// Kernel descriptor: the unit of work submitted to a stream, and the
// immutable kernel program a DNN stage compiles to.
//
// Work is expressed in SM-seconds (execution time on exactly one SM), so
// the executor derives the duration at any partition size from the
// per-op-class SpeedupModel; launch overhead never scales with SMs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gpu/op_class.hpp"

namespace sgprs::gpu {

/// A kernel launch. `work_sm_seconds` is the kernel's execution time when
/// run on exactly one SM (so duration at m SMs is work / speedup(op, m)).
/// `overhead_seconds` is the launch overhead, which never scales with SMs.
struct KernelDesc {
  OpClass op = OpClass::kOther;
  double work_sm_seconds = 0.0;
  double overhead_seconds = 0.0;
  /// Opaque caller cookie carried through to trace events (e.g. job id).
  std::uint64_t tag = 0;
  /// Debug label (layer name); not used by the executor itself.
  std::string label;
};

/// An immutable kernel sequence, built once (rt::build_task compiles each
/// task stage into one) and shared by every job and stream that runs it
/// through Executor::enqueue_program. `id()` is unique for the life of the
/// process, so the executor keys its per-program memo on it: an address
/// could be reused by a later program.
class KernelProgram {
 public:
  /// `kernels` must be non-empty, with non-negative work and overhead.
  explicit KernelProgram(std::vector<KernelDesc> kernels);

  const std::vector<KernelDesc>& kernels() const { return kernels_; }
  std::size_t size() const { return kernels_.size(); }
  std::uint64_t id() const { return id_; }

 private:
  std::vector<KernelDesc> kernels_;
  std::uint64_t id_;
};

}  // namespace sgprs::gpu
