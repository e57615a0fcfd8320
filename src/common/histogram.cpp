#include "common/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace sgprs::common {

namespace {

constexpr int kTopIndex =
    (Histogram::kMaxExponent + 2) * Histogram::kSubBuckets - 1;

}  // namespace

int Histogram::bucket_index(double v) {
  if (!(v > 0.0)) return 0;  // negatives and NaN clamp with the zeros
  if (v < 1.0) {
    // Multiplying by a power of two is exact, so the cast truncates the
    // true linear bucket — never 128 (v < 1 strictly).
    return static_cast<int>(v * kSubBuckets);
  }
  const int e = std::ilogb(v);
  if (e > kMaxExponent) return kTopIndex;
  // scalbn is an exact exponent shift and x - 1 is exact for x in [1, 2)
  // (Sterbenz), so the sub-bucket is computed without rounding drift —
  // bit-identical on every platform.
  const double frac = std::scalbn(v, -e) - 1.0;
  int sub = static_cast<int>(frac * kSubBuckets);
  sub = std::min(sub, kSubBuckets - 1);
  return (e + 1) * kSubBuckets + sub;
}

double Histogram::bucket_lo(int index) {
  SGPRS_CHECK(index >= 0 && index <= kTopIndex);
  if (index < kSubBuckets) {
    return static_cast<double>(index) / kSubBuckets;
  }
  const int e = index / kSubBuckets - 1;
  const int sub = index % kSubBuckets;
  return std::scalbn(1.0 + static_cast<double>(sub) / kSubBuckets, e);
}

double Histogram::bucket_hi(int index) {
  if (index >= kTopIndex) return std::scalbn(2.0, kMaxExponent);
  return bucket_lo(index + 1);
}

void Histogram::widen(int lo, int hi) {
  if (counts_.empty()) {
    lo_ = lo;
    counts_.assign(static_cast<std::size_t>(hi - lo), 0);
    return;
  }
  if (lo < lo_) {
    counts_.insert(counts_.begin(), static_cast<std::size_t>(lo_ - lo), 0);
    lo_ = lo;
  }
  const auto size = static_cast<std::size_t>(hi - lo_);
  if (size > counts_.size()) counts_.resize(size, 0);
}

void Histogram::add(double v) {
  if (!(v > 0.0)) v = 0.0;
  const int idx = bucket_index(v);
  widen(idx, idx + 1);
  ++counts_[static_cast<std::size_t>(idx - lo_)];
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

Histogram::Union Histogram::union_of(
    std::span<const Histogram* const> parts) {
  Union u;
  for (const Histogram* p : parts) {
    if (p->count_ == 0) continue;
    const int hi = p->lo_ + static_cast<int>(p->counts_.size());
    if (u.count == 0) {
      u.min = p->min_;
      u.max = p->max_;
      u.lo = p->lo_;
      u.hi = hi;
    } else {
      u.min = std::min(u.min, p->min_);
      u.max = std::max(u.max, p->max_);
      u.lo = std::min(u.lo, p->lo_);
      u.hi = std::max(u.hi, hi);
    }
    u.count += p->count_;
    u.sum += p->sum_;
  }
  return u;
}

void Histogram::merge(const Histogram& other) {
  const Histogram* part = &other;
  merge(std::span<const Histogram* const>(&part, 1));
}

void Histogram::merge(std::span<const Histogram* const> parts) {
  const Union u = union_of(parts);
  if (u.count == 0) return;
  widen(u.lo, u.hi);
  for (const Histogram* p : parts) {
    if (p->counts_.empty()) continue;
    std::int64_t* at = counts_.data() + (p->lo_ - lo_);
    for (std::size_t i = 0; i < p->counts_.size(); ++i) {
      at[i] += p->counts_[i];
    }
  }
  if (count_ == 0) {
    min_ = u.min;
    max_ = u.max;
  } else {
    min_ = std::min(min_, u.min);
    max_ = std::max(max_, u.max);
  }
  count_ += u.count;
  sum_ += u.sum;
}

double Histogram::quantile(double q) const { return quantiles(q, q).first; }

std::pair<double, double> Histogram::quantiles(double lo, double hi) const {
  const Histogram* self = this;
  return quantiles(std::span<const Histogram* const>(&self, 1), lo, hi);
}

std::pair<double, double> Histogram::quantiles(
    std::span<const Histogram* const> parts, double lo, double hi) {
  SGPRS_CHECK(lo >= 0.0 && lo <= hi && hi <= 1.0);
  const Union u = union_of(parts);
  if (u.count == 0) return {0.0, 0.0};
  // One walk for both reads: hi's rank is at least lo's, so every bucket
  // the first read passes lies below it too. Every bucket below the
  // union's window holds 0, so the walk starts at its low edge.
  int i = u.lo;
  std::int64_t cum = 0;
  auto read = [&](double q) {
    if (q == 0.0) return u.min;
    if (q == 1.0) return u.max;
    const double rank = q * static_cast<double>(u.count - 1);
    for (; i < u.hi; ++i) {
      std::int64_t c = 0;
      for (const Histogram* p : parts) {
        // Below a part's window the offset wraps past its size.
        const auto at = static_cast<std::size_t>(i - p->lo_);
        if (at < p->counts_.size()) c += p->counts_[at];
      }
      if (c == 0) continue;
      if (rank < static_cast<double>(cum + c)) {
        // Model the bucket's c samples at evenly spaced interior positions
        // and read off the fractional rank within it.
        const double b_lo = bucket_lo(i);
        const double b_hi = bucket_hi(i);
        const double within =
            (rank - static_cast<double>(cum) + 0.5) / static_cast<double>(c);
        const double v = b_lo + (b_hi - b_lo) * within;
        return std::clamp(v, u.min, u.max);
      }
      cum += c;
    }
    return u.max;  // rank == count - 1 lands here via floating round-up
  };
  const double first = read(lo);
  return {first, read(hi)};
}

}  // namespace sgprs::common
