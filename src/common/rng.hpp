// Deterministic pseudo-random number generation for workload synthesis.
//
// A splitmix64-seeded xoshiro256** generator: fast, reproducible across
// platforms (unlike std::default_random_engine), and good enough statistical
// quality for jittering task phases and generating synthetic task sets.
#pragma once

#include <cstdint>

#include "common/check.hpp"

namespace sgprs::common {

/// One splitmix64 step (Steele et al.): advances `state` by the golden
/// ratio and returns the full-avalanche output. The single source of this
/// finalizer — Rng seeding and the experiment engine's per-job seed
/// derivation both build on it, so they can never drift apart.
inline std::uint64_t splitmix64_next(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Per-stream seed derivation: an affine golden-ratio mix of a base seed
/// and a stream (task) index, fed to Rng::reseed which splitmix64-finalizes
/// it. One definition site — the Runner's arrival rngs and the fleet
/// sharding layer both use it, so the "seeds are a function of (seed, task
/// id) alone, never of admission order" contract cannot drift.
inline std::uint64_t stream_seed(std::uint64_t base, int stream_id) {
  return base + 0x9e3779b97f4a7c15ULL *
                    (static_cast<std::uint64_t>(stream_id) + 1);
}

/// Two-key seed derivation for draws indexed by an (entity, occurrence)
/// pair — e.g. the fault process keys on (device, incident). Two splitmix64
/// steps give full-avalanche separation, so unlike chaining the affine
/// 2-arg form, (a, b) and (b, a) never share a seed.
inline std::uint64_t stream_seed(std::uint64_t base, int a, int b) {
  std::uint64_t state =
      stream_seed(base, a) +
      0xbf58476d1ce4e5b9ULL * (static_cast<std::uint64_t>(b) + 1);
  (void)splitmix64_next(state);
  return splitmix64_next(state);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // splitmix64 to spread a small seed across the full state.
    std::uint64_t x = seed;
    for (auto& s : state_) s = splitmix64_next(x);
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    SGPRS_CHECK(lo <= hi);
    return lo + (hi - lo) * next_double();
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    SGPRS_CHECK(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_u64() % span);
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4] = {};
};

}  // namespace sgprs::common
