#include "gpu/context_pool.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace sgprs::gpu {

int ContextPool::sms_per_context(int device_total_sms, int num_contexts,
                                 double oversubscription) {
  SGPRS_CHECK(num_contexts > 0);
  SGPRS_CHECK(oversubscription > 0.0);
  const double raw = static_cast<double>(device_total_sms) /
                     static_cast<double>(num_contexts) * oversubscription;
  // Clamp before rounding: a huge oversubscription would overflow the
  // conversion to an integer.
  return static_cast<int>(std::lround(
      std::clamp(raw, 1.0, static_cast<double>(device_total_sms))));
}

ContextPool::ContextPool(Executor& exec, const ContextPoolConfig& cfg) {
  SGPRS_CHECK(cfg.high_streams_per_context >= 0);
  SGPRS_CHECK(cfg.low_streams_per_context >= 0);
  SGPRS_CHECK(cfg.high_streams_per_context + cfg.low_streams_per_context > 0);
  std::vector<int> sizes = cfg.explicit_sm_limits;
  if (sizes.empty()) {
    SGPRS_CHECK(cfg.num_contexts > 0);
    sizes.assign(cfg.num_contexts,
                 sms_per_context(exec.device().total_sms, cfg.num_contexts,
                                 cfg.oversubscription));
  }
  for (int sms : sizes) {
    PooledContext pc;
    pc.ctx = exec.create_context(sms);
    pc.sm_limit = sms;
    for (int h = 0; h < cfg.high_streams_per_context; ++h) {
      pc.high_streams.push_back(
          exec.create_stream(pc.ctx, StreamPriority::kHigh));
    }
    for (int l = 0; l < cfg.low_streams_per_context; ++l) {
      pc.low_streams.push_back(
          exec.create_stream(pc.ctx, StreamPriority::kLow));
    }
    contexts_.push_back(std::move(pc));
  }
}

int ContextPool::total_allocated_sms() const {
  int total = 0;
  for (const auto& c : contexts_) total += c.sm_limit;
  return total;
}

}  // namespace sgprs::gpu
