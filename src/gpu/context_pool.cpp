#include "gpu/context_pool.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

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

ContextPool::ContextPool(int device_total_sms, const ContextPoolConfig& cfg) {
  SGPRS_CHECK(cfg.high_streams_per_context >= 0);
  SGPRS_CHECK(cfg.low_streams_per_context >= 0);
  SGPRS_CHECK(cfg.high_streams_per_context + cfg.low_streams_per_context > 0);
  const std::vector<int> sms = sm_limits(device_total_sms, cfg);
  contexts_.resize(sms.size());
  StreamId next = 0;
  for (std::size_t c = 0; c < sms.size(); ++c) {
    PooledContext& pc = contexts_[c];
    pc.ctx = static_cast<ContextId>(c);
    pc.sm_limit = sms[c];
    pc.high_streams.resize(cfg.high_streams_per_context);
    std::iota(pc.high_streams.begin(), pc.high_streams.end(), next);
    next += cfg.high_streams_per_context;
    pc.low_streams.resize(cfg.low_streams_per_context);
    std::iota(pc.low_streams.begin(), pc.low_streams.end(), next);
    next += cfg.low_streams_per_context;
  }
}

ContextPool::ContextPool(Executor& exec, const ContextPoolConfig& cfg)
    : ContextPool(exec.device_class().total_sms, cfg) {
  for (PooledContext& pc : contexts_) {
    pc.ctx = exec.create_context(pc.sm_limit);
    for (StreamId& s : pc.high_streams) {
      s = exec.create_stream(pc.ctx, StreamPriority::kHigh);
    }
    for (StreamId& s : pc.low_streams) {
      s = exec.create_stream(pc.ctx, StreamPriority::kLow);
    }
  }
}

DeviceClass ContextPool::device_class(int device_total_sms,
                                      const SpeedupModel& speedup,
                                      const SharingParams& sharing) const {
  DeviceClass cls{device_total_sms, speedup, sharing, {}, {}};
  cls.context_sms.reserve(contexts_.size());
  for (const PooledContext& pc : contexts_) {
    SGPRS_CHECK_MSG(pc.ctx == static_cast<ContextId>(cls.context_sms.size()),
                    "a pool layout numbers its contexts from 0");
    cls.context_sms.push_back(pc.sm_limit);
    for (const auto priority : {StreamPriority::kHigh, StreamPriority::kLow}) {
      const auto& ids = priority == StreamPriority::kHigh ? pc.high_streams
                                                          : pc.low_streams;
      for (StreamId s : ids) {
        SGPRS_CHECK_MSG(s == static_cast<StreamId>(cls.streams.size()),
                        "a pool layout numbers its streams from 0");
        cls.streams.push_back(DeviceClass::Stream{pc.ctx, priority});
      }
    }
  }
  return cls;
}

}  // namespace sgprs::gpu
