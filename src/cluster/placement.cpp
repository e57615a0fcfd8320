#include "cluster/placement.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace sgprs::cluster {

const char* to_string(PlacementPolicy p) {
  return common::name_of(kPlacementPolicyNames, p);
}

std::string placement_policy_names() {
  return common::names_of(kPlacementPolicyNames);
}

std::optional<PlacementPolicy> parse_placement_policy(
    const std::string& name) {
  return common::parse_name(kPlacementPolicyNames, name);
}

std::optional<std::vector<gpu::DeviceSpec>> parse_fleet(
    const std::string& spec) {
  if (spec.empty()) return std::nullopt;

  bool all_digits = true;
  for (char c : spec) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      all_digits = false;
      break;
    }
  }
  if (all_digits) {
    errno = 0;
    char* end = nullptr;
    const long n = std::strtol(spec.c_str(), &end, 10);
    if (errno != 0 || end != spec.c_str() + spec.size() || n < 1 ||
        n > kMaxFleetDevices) {
      return std::nullopt;
    }
    return std::vector<gpu::DeviceSpec>(static_cast<std::size_t>(n),
                                        gpu::rtx2080ti());
  }

  std::vector<gpu::DeviceSpec> fleet;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const auto comma = spec.find(',', pos);
    const std::string name =
        spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    const auto dev = gpu::device_by_name(name);
    if (!dev) return std::nullopt;
    fleet.push_back(*dev);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return fleet;
}

}  // namespace sgprs::cluster
