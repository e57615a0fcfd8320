// Fleet control policies: elastic autoscaling and overload control.
//
// The autoscaler is a periodic control loop over the placer's analytic
// load model (offered work rate / saturated capacity — deterministic and
// O(tasks), no sampling noise). A policy maps the observed fleet load to a
// desired provisioned-device count; the runtime applies it under min/max
// bounds, a cooldown between actions, and a warm-up latency before a new
// device takes placements (spinning up an MPS daemon + context pool is not
// free in the real world, so it is not free here).
//
// The overload controller has three escalating answers to demand the fleet
// cannot bound:
//   1. admission-test rejection — a new stream no device passes for is
//      turned away at the door (unless admission_test is off, in which
//      case it is force-placed on the emptiest device);
//   2. QoS downgrade — before rejecting, retry admission at fps_scale × the
//      requested rate (a degraded stream beats a rejected one);
//   3. load shedding — releases arriving at a device whose in-flight count
//      is at queue_limit are dropped at the door, priority-aware (tier 0
//      streams are never shed) or indiscriminate.
// Every decision leaves an audit record in the run result.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/enum_names.hpp"
#include "common/json.hpp"
#include "common/time.hpp"

namespace sgprs::fleet {

enum class AutoscalePolicyKind { kNone, kUtilization, kHeadroom };
inline constexpr common::EnumName<AutoscalePolicyKind> kAutoscalePolicyNames[] =
    {{AutoscalePolicyKind::kNone, "none"},
     {AutoscalePolicyKind::kUtilization, "utilization"},
     {AutoscalePolicyKind::kHeadroom, "headroom"}};

struct AutoscalerConfig {
  AutoscalePolicyKind kind = AutoscalePolicyKind::kNone;
  int min_devices = 1;
  int max_devices = 4;
  /// kUtilization: scale up above, down below (mean analytic utilization
  /// of active devices, 0..1 of the admission budget's basis).
  double scale_up_threshold = 0.85;
  double scale_down_threshold = 0.40;
  /// kHeadroom: keep at least this fraction of fleet capacity spare; scale
  /// down only when the post-shrink fleet would still keep it.
  double headroom = 0.25;
  /// Control-loop period.
  double tick_ms = 100.0;
  /// A scaled-up device takes placements only after this long.
  double warmup_ms = 200.0;
  /// Minimum gap between two scale actions.
  double cooldown_ms = 400.0;
  /// Device spec to add on scale-up ("2080ti"/"3090"); empty = the
  /// scenario's base device.
  std::string device;
};

enum class ShedMode { kNone, kPriority, kAll };
inline constexpr common::EnumName<ShedMode> kShedModeNames[] = {
    {ShedMode::kNone, "none"},
    {ShedMode::kPriority, "priority"},
    {ShedMode::kAll, "all"}};

struct OverloadConfig {
  /// Reject streams no device admits. Off = force-place on the device
  /// with the most spare capacity (load ordering still applies).
  bool admission_test = true;
  ShedMode shed = ShedMode::kNone;
  /// Per-device in-flight ceiling for shedding; 0 disables shedding even
  /// when a shed mode is set.
  int queue_limit = 0;
  /// QoS downgrade factor in (0, 1]: a rejected stream is retried at
  /// fps * fps_scale before being turned away. 1 disables.
  double fps_scale = 1.0;
};

struct FleetPolicySpec {
  AutoscalerConfig autoscaler;
  OverloadConfig overload;
  /// Time-series sampling window.
  double series_window_ms = 100.0;
};

/// What a policy sees each tick. Utilizations are the placer's analytic
/// offered/capacity fractions over *active* devices.
struct FleetLoad {
  double mean_utilization = 0.0;
  double max_utilization = 0.0;
  /// Devices taking placements now.
  int active_devices = 0;
  /// Scaled-up devices still inside their warm-up window.
  int warming_devices = 0;
  /// Deactivated devices still draining in-flight work.
  int draining_devices = 0;
  /// Crashed devices not yet recovered. Excluded from active_devices, so
  /// a utilization policy naturally provisions replacements — the signal
  /// is here for policies that want to react to faults directly.
  int failed_devices = 0;
};

/// Maps observed load to a desired provisioned count (active + warming).
/// The runtime clamps to [min_devices, max_devices] and rate-limits.
class AutoscalerPolicy {
 public:
  virtual ~AutoscalerPolicy() = default;
  virtual int desired_devices(const FleetLoad& load,
                              const AutoscalerConfig& cfg) const = 0;
  virtual std::string name() const = 0;
};

/// Factory for the built-in policies; kNone returns nullptr.
std::unique_ptr<AutoscalerPolicy> make_autoscaler(AutoscalePolicyKind kind);

/// Parses a "fleet_policy" section. Throws workload::SpecError.
FleetPolicySpec parse_fleet_policy(const common::JsonValue& v,
                                   const std::string& path);

/// Semantic validation (bounds, thresholds, known device names, times
/// finite and within SimTime range). The series sampler and the autoscaler
/// tick fire at most kMaxControlInstants times over the run `horizon`; a
/// zero horizon leaves them unbounded.
void validate_fleet_policy(const FleetPolicySpec& spec,
                           const std::string& path,
                           common::SimTime horizon = common::SimTime::zero());

}  // namespace sgprs::fleet
