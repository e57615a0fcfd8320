// Fleet-level placement policies: which device an admitted task lands on.
//
// The per-device scheduler (SGPRS or naive) is only half of a deployment;
// at fleet scale a placer must decide where each periodic task lives before
// any job is released. Policies are deliberately simple and online — every
// decision uses only the tasks placed so far.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/enum_names.hpp"
#include "gpu/device.hpp"

namespace sgprs::cluster {

enum class PlacementPolicy {
  /// Rotate across devices independent of load.
  kRoundRobin,
  /// Device with the lowest offered-utilization *fraction* of its own
  /// capacity (relative load balance; heterogeneous devices fill evenly).
  kLeastLoaded,
  /// Best-fit bin packing by work-rate: the device with the *least*
  /// absolute spare capacity that still admits the task wins, so loaded
  /// devices fill up before fresh ones are opened.
  kBinPackUtilization,
  /// Best-fit bin packing by device memory: the device with the least
  /// remaining memory that still admits wins. The policy of choice for
  /// memory-constrained fleets — streams concentrate on few devices.
  kBinPackMemory,
  /// Worst-fit spreading by absolute spare work-rate: the device with the
  /// most headroom wins (big devices fill first). This is the pre-fix
  /// behaviour of "binpack", kept reachable under its honest name.
  kWorstFit,
  /// Stable hash of the task name picks a home device (session affinity);
  /// linear probing past saturated devices keeps admission maximal.
  kHashAffinity,
};

inline constexpr common::EnumName<PlacementPolicy> kPlacementPolicyNames[] = {
    {PlacementPolicy::kRoundRobin, "roundrobin"},
    {PlacementPolicy::kLeastLoaded, "leastloaded"},
    {PlacementPolicy::kBinPackUtilization, "binpack"},
    {PlacementPolicy::kBinPackMemory, "binpack_memory"},
    {PlacementPolicy::kWorstFit, "worstfit"},
    {PlacementPolicy::kHashAffinity, "hash"}};

/// Upper bound on a fleet's device count, for every input that sizes one
/// (--devices, a spec's fleet.devices, the autoscaler's max_devices). The
/// largest curated fleet, diurnal_wave_10k, has 10,000 devices; the bound
/// leaves 10x headroom (each device costs tens of KiB) and turns a
/// mistyped count into an error instead of an allocation failure.
inline constexpr int kMaxFleetDevices = 100000;

const char* to_string(PlacementPolicy p);

/// All accepted names, pipe-separated (for --help text).
std::string placement_policy_names();

/// Parses a policy name; std::nullopt on anything unrecognised.
std::optional<PlacementPolicy> parse_placement_policy(
    const std::string& name);

/// Parses a CLI fleet description: either a device count ("4" = four
/// 2080 Ti) or a comma-separated list of device names ("2080ti,3090").
/// std::nullopt on unknown names or a count outside 1..kMaxFleetDevices.
std::optional<std::vector<gpu::DeviceSpec>> parse_fleet(
    const std::string& spec);

}  // namespace sgprs::cluster
