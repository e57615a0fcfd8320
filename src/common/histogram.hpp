// Mergeable log-linear histogram: exact integer bucket counts with exact
// count / sum / min / max on the side.
//
// Bucket layout: values in [0, 1) land in kSubBuckets linear buckets of
// width 1/kSubBuckets; each octave [2^e, 2^(e+1)) above that splits into
// kSubBuckets log-linear buckets of width 2^e/kSubBuckets. Quantile reads
// interpolate inside a bucket, so their error is bounded by one bucket
// width — a relative error below 1/kSubBuckets (< 0.8%) everywhere.
//
// The property the metrics layer builds on is merge(): bucket counts are
// integers and min/max are order-free, so folding per-shard (or
// per-device) histograms and then reading a quantile returns *bit-equal*
// doubles to one histogram fed the whole population, for any split
// (pinned by tests/common/histogram_test.cpp). That is what makes the
// fleet-wide p50/p99 in metrics/fleet.cpp exact rather than a
// completed-weighted mean of per-device percentiles.
//
// Storage is windowed: the counts cover only the buckets from the lowest
// to the highest occupied one (an offset plus a vector), so a stream whose
// latencies sit in a narrow band holds a few buckets, not every bucket
// from 0 up to its highest — and never an unbounded sample vector.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace sgprs::common {

class Histogram {
 public:
  /// Buckets per octave (and linear buckets below 1.0).
  static constexpr int kSubBuckets = 128;
  /// Octaves above 1.0; values >= 2^(kMaxExponent+1) saturate into the
  /// top bucket (their exact magnitude survives in max()/sum()).
  static constexpr int kMaxExponent = 30;

  /// Records one sample. Negative values clamp to 0 (latencies are
  /// non-negative by construction; a clamp beats silent UB on a stray
  /// rounding artefact).
  void add(double v);

  /// Folds `other` in: integer bucket-count sums plus exact min/max/sum.
  void merge(const Histogram& other);
  /// Folds in the union of `parts` as merging the histogram that merges
  /// them all, in order, would: the parts' sums are added together first,
  /// so the double sum groups as that merge's. Builds no such histogram.
  void merge(std::span<const Histogram* const> parts);

  std::int64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  /// Quantile at q in [0, 1] (checked). Returns 0 when empty. Uses the
  /// same fractional-rank convention as Percentiles (q * (count - 1)),
  /// interpolated inside the covering bucket and clamped to [min, max] —
  /// so quantile(0) == min and quantile(1) == max exactly.
  double quantile(double q) const;
  /// {quantile(lo), quantile(hi)} for lo <= hi (checked), read in one walk
  /// over the buckets; bit-equal to the two calls.
  std::pair<double, double> quantiles(double lo, double hi) const;
  /// quantiles(lo, hi) of the union of `parts`, the histogram merging them
  /// all would hold, read across the parts without building it.
  static std::pair<double, double> quantiles(
      std::span<const Histogram* const> parts, double lo, double hi);
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  /// Bucket geometry (export and tests).
  static int bucket_index(double v);
  static double bucket_lo(int index);
  static double bucket_hi(int index);

 private:
  // What merging `parts` in order into an empty histogram would give its
  // count, sum, min, max and occupied bucket window [lo, hi).
  struct Union {
    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    int lo = 0;
    int hi = 0;
  };
  static Union union_of(std::span<const Histogram* const> parts);
  // Grows the window to cover buckets [lo, hi); new buckets hold 0.
  void widen(int lo, int hi);

  // counts_[i] is bucket lo_ + i's count. Empty exactly when count_ == 0.
  std::vector<std::int64_t> counts_;
  int lo_ = 0;
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace sgprs::common
