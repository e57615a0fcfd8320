#include "workload/scenario.hpp"

#include <cmath>
#include <utility>

#include "cluster/cluster.hpp"

namespace sgprs::workload {

/// Pool shape for one device. The naive baseline gets one stream per
/// context and no over-subscription (it is pure spatial partitioning).
gpu::ContextPoolConfig pool_config_for(const ScenarioConfig& cfg) {
  gpu::ContextPoolConfig pool_cfg;
  pool_cfg.num_contexts = cfg.num_contexts;
  if (cfg.scheduler == SchedulerKind::kSgprs) {
    pool_cfg.oversubscription = cfg.oversubscription;
    pool_cfg.explicit_sm_limits = cfg.context_sms;
    pool_cfg.high_streams_per_context = 2;
    pool_cfg.low_streams_per_context = 2;
  } else {
    pool_cfg.oversubscription = 1.0;
    pool_cfg.high_streams_per_context = 1;
    pool_cfg.low_streams_per_context = 0;
  }
  return pool_cfg;
}

gpu::DeviceSpec device_spec_for(const ScenarioConfig& cfg,
                                gpu::DeviceSpec spec) {
  if (cfg.device_mem_mb > 0.0) {
    spec.mem_bytes =
        static_cast<std::int64_t>(std::llround(cfg.device_mem_mb * 1048576.0));
  }
  return spec;
}

cluster::ClusterConfig cluster_config_for(const ScenarioConfig& cfg) {
  cluster::ClusterConfig ccfg;
  ccfg.devices = cfg.fleet.empty() ? std::vector<gpu::DeviceSpec>(
                                         cfg.num_devices, cfg.device)
                                   : cfg.fleet;
  for (auto& spec : ccfg.devices) spec = device_spec_for(cfg, std::move(spec));
  ccfg.placement = cfg.placement;
  ccfg.admission_margin = cfg.admission_margin;
  ccfg.occupancy_threshold = cfg.occupancy_threshold;
  ccfg.scheduler = cfg.scheduler;
  ccfg.pool = pool_config_for(cfg);
  ccfg.sgprs = cfg.sgprs;
  ccfg.naive = cfg.naive;
  ccfg.sharing = cfg.sharing;
  ccfg.shards = cfg.shards;
  return ccfg;
}

}  // namespace sgprs::workload
