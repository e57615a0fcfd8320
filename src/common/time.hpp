// Simulation time: a strong integer nanosecond type.
//
// All simulator state advances on SimTime. Using a fixed-point integer (not
// double) keeps event ordering exact and runs reproducible across platforms.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "common/check.hpp"

namespace sgprs::common {

/// Absolute simulation time or a duration, in nanoseconds.
///
/// A plain struct wrapper (rather than std::chrono) so that arithmetic with
/// rates (work / seconds) stays explicit and cheap in the hot DES loop.
struct SimTime {
  std::int64_t ns = 0;

  static constexpr SimTime zero() { return SimTime{0}; }
  static constexpr SimTime max() {
    return SimTime{std::numeric_limits<std::int64_t>::max()};
  }
  static constexpr SimTime from_ns(std::int64_t v) { return SimTime{v}; }
  static constexpr SimTime from_us(double us) {
    return from_ns_saturated(us * 1e3);
  }
  static constexpr SimTime from_ms(double ms) {
    return from_ns_saturated(ms * 1e6);
  }
  static constexpr SimTime from_sec(double s) {
    return from_ns_saturated(s * 1e9);
  }
  /// `ns` truncated toward zero. Values past the int64 range, infinities
  /// included, saturate to its limits; NaN fails a CHECK.
  static constexpr SimTime from_ns_saturated(double ns) {
    const bool is_number = ns == ns;  // false only for NaN
    SGPRS_CHECK(is_number);
    if (ns >= 0x1p63) return max();
    if (ns < -0x1p63) {
      return SimTime{std::numeric_limits<std::int64_t>::min()};
    }
    return SimTime{static_cast<std::int64_t>(ns)};
  }

  constexpr double to_sec() const { return static_cast<double>(ns) * 1e-9; }
  constexpr double to_ms() const { return static_cast<double>(ns) * 1e-6; }
  constexpr double to_us() const { return static_cast<double>(ns) * 1e-3; }

  constexpr bool is_max() const {
    return ns == std::numeric_limits<std::int64_t>::max();
  }

  friend constexpr SimTime operator+(SimTime a, SimTime b) {
    return SimTime{a.ns + b.ns};
  }
  friend constexpr SimTime operator-(SimTime a, SimTime b) {
    return SimTime{a.ns - b.ns};
  }
  friend constexpr SimTime operator*(SimTime a, std::int64_t k) {
    return SimTime{a.ns * k};
  }
  constexpr SimTime& operator+=(SimTime o) {
    ns += o.ns;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime o) {
    ns -= o.ns;
    return *this;
  }
  friend constexpr auto operator<=>(SimTime a, SimTime b) = default;
};

/// Pretty-print a time with an adaptive unit ("1.234 ms", "56.7 us", ...).
inline std::string to_string(SimTime t) {
  const double ms = t.to_ms();
  char buf[48];
  if (t.is_max()) return "+inf";
  if (ms >= 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.3f s", t.to_sec());
  } else if (ms >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", ms);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f us", t.to_us());
  }
  return buf;
}

}  // namespace sgprs::common
