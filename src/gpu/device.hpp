// Static description of the simulated GPU device.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace sgprs::gpu {

/// Immutable hardware description. The evaluation models an NVIDIA RTX 2080
/// Ti (68 streaming multiprocessors), matching the paper's testbed.
struct DeviceSpec {
  std::string name = "RTX 2080 Ti (simulated)";
  int total_sms = 68;
  /// Usable device memory for stream working sets. Placement treats this
  /// as a hard budget: a stream whose footprint does not fit is rejected
  /// as OOM rather than admitted.
  std::int64_t mem_bytes = 11LL << 30;  // 11 GiB (2080 Ti)
  /// Resident-warp capacity per SM. Turing runs 32 warps/SM; Ampere 48.
  /// (The CASE exemplar hardcodes 64; we use per-architecture values.)
  int warps_per_sm = 32;

  /// Total resident-warp capacity of the device.
  std::int64_t total_warps() const {
    return static_cast<std::int64_t>(total_sms) * warps_per_sm;
  }

  bool operator==(const DeviceSpec&) const = default;
};

inline DeviceSpec rtx2080ti() { return DeviceSpec{}; }

/// A 3090-class device (82 SMs, 24 GiB): the second SM count used for
/// heterogeneous fleets in the cluster layer.
inline DeviceSpec rtx3090() {
  DeviceSpec d;
  d.name = "RTX 3090 (simulated)";
  d.total_sms = 82;
  d.mem_bytes = 24LL << 30;
  d.warps_per_sm = 48;
  return d;
}

/// Device lookup by short name (CLI `--devices=` lists); nullopt on
/// anything unrecognised.
inline std::optional<DeviceSpec> device_by_name(const std::string& name) {
  if (name == "2080ti" || name == "rtx2080ti") return rtx2080ti();
  if (name == "3090" || name == "rtx3090") return rtx3090();
  return std::nullopt;
}

inline const char* device_names() { return "2080ti|3090"; }

}  // namespace sgprs::gpu
