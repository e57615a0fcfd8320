#include "gpu/kernel.hpp"

#include <atomic>
#include <utility>

#include "common/check.hpp"

namespace sgprs::gpu {
namespace {

// Experiment runs (--jobs) build tasks, and so programs, on several
// threads at once.
std::atomic<std::uint64_t> g_next_program_id{1};

}  // namespace

KernelProgram::KernelProgram(std::vector<KernelDesc> kernels)
    : kernels_(std::move(kernels)),
      id_(g_next_program_id.fetch_add(1, std::memory_order_relaxed)) {
  SGPRS_CHECK_MSG(!kernels_.empty(), "a kernel program needs >= 1 kernel");
  for (const KernelDesc& k : kernels_) {
    SGPRS_CHECK(k.work_sm_seconds >= 0.0);
    SGPRS_CHECK(k.overhead_seconds >= 0.0);
  }
}

}  // namespace sgprs::gpu
