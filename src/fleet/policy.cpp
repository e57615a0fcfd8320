#include "fleet/policy.hpp"

#include "cluster/placement.hpp"
#include "fleet/timeline.hpp"
#include "gpu/device.hpp"
#include "workload/spec_util.hpp"

namespace sgprs::fleet {

namespace {

using common::JsonValue;
using namespace workload::specdet;

/// Scale on mean utilization crossing fixed thresholds. One device per
/// tick in either direction keeps the loop stable under churn spikes.
class UtilizationPolicy final : public AutoscalerPolicy {
 public:
  int desired_devices(const FleetLoad& load,
                      const AutoscalerConfig& cfg) const override {
    const int provisioned = load.active_devices + load.warming_devices;
    // Warming capacity is on the way; do not double-provision for the
    // same overload signal.
    if (load.mean_utilization > cfg.scale_up_threshold &&
        load.warming_devices == 0) {
      return provisioned + 1;
    }
    if (load.mean_utilization < cfg.scale_down_threshold &&
        load.active_devices > 1) {
      return provisioned - 1;
    }
    return provisioned;
  }
  std::string name() const override { return "utilization"; }
};

/// Keep a target fraction of fleet capacity spare. Symmetric: grow when
/// spare < headroom, shrink only when the *post-shrink* fleet would still
/// keep the headroom (no flapping at the boundary).
class HeadroomPolicy final : public AutoscalerPolicy {
 public:
  int desired_devices(const FleetLoad& load,
                      const AutoscalerConfig& cfg) const override {
    const int provisioned = load.active_devices + load.warming_devices;
    const double spare = 1.0 - load.mean_utilization;
    if (spare < cfg.headroom && load.warming_devices == 0) {
      return provisioned + 1;
    }
    if (load.active_devices > 1) {
      const int n = load.active_devices;
      const double util_after =
          load.mean_utilization * static_cast<double>(n) /
          static_cast<double>(n - 1);
      if (1.0 - util_after >= cfg.headroom) return provisioned - 1;
    }
    return provisioned;
  }
  std::string name() const override { return "headroom"; }
};

}  // namespace

std::unique_ptr<AutoscalerPolicy> make_autoscaler(AutoscalePolicyKind kind) {
  switch (kind) {
    case AutoscalePolicyKind::kNone: return nullptr;
    case AutoscalePolicyKind::kUtilization:
      return std::make_unique<UtilizationPolicy>();
    case AutoscalePolicyKind::kHeadroom:
      return std::make_unique<HeadroomPolicy>();
  }
  return nullptr;
}

FleetPolicySpec parse_fleet_policy(const common::JsonValue& v,
                                   const std::string& path) {
  require_object(v, path);
  check_keys(v, {"autoscaler", "overload", "series_window_ms"}, path);
  FleetPolicySpec spec;
  spec.series_window_ms =
      num_or(v, "series_window_ms", spec.series_window_ms, path);

  if (const JsonValue* as = v.find("autoscaler")) {
    const std::string p = path + ".autoscaler";
    require_object(*as, p);
    check_keys(*as,
               {"policy", "min_devices", "max_devices", "scale_up_threshold",
                "scale_down_threshold", "headroom", "tick_ms", "warmup_ms",
                "cooldown_ms", "device"},
               p);
    auto& a = spec.autoscaler;
    a.kind = enum_or(*as, "policy", kAutoscalePolicyNames, a.kind, "policy",
                     p);
    a.min_devices = int_or(*as, "min_devices", a.min_devices, p);
    a.max_devices = int_or(*as, "max_devices", a.max_devices, p);
    a.scale_up_threshold =
        num_or(*as, "scale_up_threshold", a.scale_up_threshold, p);
    a.scale_down_threshold =
        num_or(*as, "scale_down_threshold", a.scale_down_threshold, p);
    a.headroom = num_or(*as, "headroom", a.headroom, p);
    a.tick_ms = num_or(*as, "tick_ms", a.tick_ms, p);
    a.warmup_ms = num_or(*as, "warmup_ms", a.warmup_ms, p);
    a.cooldown_ms = num_or(*as, "cooldown_ms", a.cooldown_ms, p);
    a.device = str_or(*as, "device", a.device, p);
  }

  if (const JsonValue* ov = v.find("overload")) {
    const std::string p = path + ".overload";
    require_object(*ov, p);
    check_keys(*ov, {"admission_test", "shed", "queue_limit", "fps_scale"},
               p);
    auto& o = spec.overload;
    o.admission_test = bool_or(*ov, "admission_test", o.admission_test, p);
    o.shed = enum_or(*ov, "shed", kShedModeNames, o.shed, "shed mode", p);
    o.queue_limit = int_or(*ov, "queue_limit", o.queue_limit, p);
    o.fps_scale = num_or(*ov, "fps_scale", o.fps_scale, p);
  }
  return spec;
}

void validate_fleet_policy(const FleetPolicySpec& spec,
                           const std::string& path, common::SimTime horizon) {
  // A periodic control source firing every `period_ms` over the horizon.
  const auto check_period = [&](const std::string& p, double period_ms) {
    if (horizon.to_ms() / period_ms >
        static_cast<double>(kMaxControlInstants)) {
      bad(p, "fires more than " + std::to_string(kMaxControlInstants) +
                 " times over the run (kMaxControlInstants)");
    }
  };
  const auto& a = spec.autoscaler;
  const std::string ap = path + ".autoscaler";
  if (a.min_devices < 1) bad(ap + ".min_devices", "must be >= 1");
  if (a.max_devices < a.min_devices) {
    bad(ap + ".max_devices", "must be >= min_devices");
  }
  if (a.max_devices > cluster::kMaxFleetDevices) {
    bad(ap + ".max_devices",
        "must be <= " + std::to_string(cluster::kMaxFleetDevices) +
            " (kMaxFleetDevices)");
  }
  if (a.scale_up_threshold <= 0.0 || a.scale_up_threshold > 2.0) {
    bad(ap + ".scale_up_threshold", "must be in (0, 2]");
  }
  if (a.scale_down_threshold < 0.0 ||
      a.scale_down_threshold >= a.scale_up_threshold) {
    bad(ap + ".scale_down_threshold",
        "must be in [0, scale_up_threshold)");
  }
  if (a.headroom <= 0.0 || a.headroom >= 1.0) {
    bad(ap + ".headroom", "must be in (0, 1)");
  }
  if (a.tick_ms <= 0.0) bad(ap + ".tick_ms", "must be > 0");
  if (a.warmup_ms < 0.0) bad(ap + ".warmup_ms", "must be >= 0");
  if (a.cooldown_ms < 0.0) bad(ap + ".cooldown_ms", "must be >= 0");
  check_times(ap, {{"tick_ms", a.tick_ms / 1000.0},
                   {"warmup_ms", a.warmup_ms / 1000.0},
                   {"cooldown_ms", a.cooldown_ms / 1000.0}});
  check_period(ap + ".tick_ms", a.tick_ms);
  if (!a.device.empty() && !gpu::device_by_name(a.device)) {
    bad(ap + ".device", "unknown device \"" + a.device + "\" (want " +
                            gpu::device_names() + ")");
  }

  const auto& o = spec.overload;
  const std::string op = path + ".overload";
  if (o.queue_limit < 0) bad(op + ".queue_limit", "must be >= 0");
  if (o.fps_scale <= 0.0 || o.fps_scale > 1.0) {
    bad(op + ".fps_scale", "must be in (0, 1]");
  }
  if (spec.series_window_ms <= 0.0) {
    bad(path + ".series_window_ms", "must be > 0");
  }
  check_times(path, {{"series_window_ms", spec.series_window_ms / 1000.0}});
  check_period(path + ".series_window_ms", spec.series_window_ms);
}

}  // namespace sgprs::fleet
