// Non-linear SM speedup model (paper Section III, Fig. 1).
//
// GPUs do not scale linearly with SMs. We model each op class with an
// Amdahl-style curve s(m) = 1 / ((1-f) + f/m), where f is solved so the
// curve passes through the paper's measured end point at 68 SMs (e.g. conv
// reaches 32x). The curve is exact at m=1 (1x) and m=68 (the reported gain),
// monotone and concave in between — the properties the scheduler's
// partitioning trade-offs depend on.
#pragma once

#include <array>

#include "gpu/op_class.hpp"

namespace sgprs::gpu {

class SpeedupModel {
 public:
  /// Builds a model from per-op speedups measured at `reference_sms`.
  SpeedupModel(const std::array<double, kOpClassCount>& speedup_at_ref,
               int reference_sms);

  /// Model calibrated to the paper's RTX 2080 Ti measurements.
  static SpeedupModel rtx2080ti();

  /// Speedup of `op` when granted `sms` SMs, relative to 1 SM.
  /// Accepts fractional grants (processor sharing); for sms < 1 the model
  /// degrades linearly (a fractional share of one SM).
  double speedup(OpClass op, double sms) const;

  /// The parallel fraction f for an op (exposed for tests/analysis).
  double parallel_fraction(OpClass op) const {
    return f_[static_cast<int>(op)];
  }

  int reference_sms() const { return reference_sms_; }

  bool operator==(const SpeedupModel&) const = default;

 private:
  std::array<double, kOpClassCount> f_{};
  int reference_sms_;
};

}  // namespace sgprs::gpu
