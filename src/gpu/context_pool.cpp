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

std::vector<int> ContextPool::sm_limits(int device_total_sms,
                                        const ContextPoolConfig& cfg) {
  for (int sms : cfg.explicit_sm_limits) {
    SGPRS_CHECK_MSG(sms > 0 && sms <= device_total_sms,
                    "context SM limit must be in [1, total_sms]");
  }
  if (!cfg.explicit_sm_limits.empty()) return cfg.explicit_sm_limits;
  SGPRS_CHECK(cfg.num_contexts > 0);
  return std::vector<int>(
      cfg.num_contexts, sms_per_context(device_total_sms, cfg.num_contexts,
                                        cfg.oversubscription));
}

ContextPool::ContextPool(Executor& exec, const ContextPoolConfig& cfg) {
  SGPRS_CHECK(cfg.high_streams_per_context >= 0);
  SGPRS_CHECK(cfg.low_streams_per_context >= 0);
  SGPRS_CHECK(cfg.high_streams_per_context + cfg.low_streams_per_context > 0);
  for (int sms : sm_limits(exec.device_class().total_sms, cfg)) {
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

}  // namespace sgprs::gpu
