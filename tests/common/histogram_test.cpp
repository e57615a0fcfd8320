// Exactness pins for the mergeable log-linear histogram
// (common/histogram.hpp, docs/observability.md).
//
// The load-bearing property is *merge exactness*: bucket counts are
// integers, so merging per-device histograms and then asking for a
// quantile returns the bit-identical double that one histogram over the
// whole population returns — for any split, in any order. That is what
// makes fleet-rollup p50/p99 exact instead of approximated
// (metrics/fleet.cpp), and it is pinned here as EXPECT_EQ on doubles
// across ~200 seeded random splits.
#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace sgprs::common {
namespace {

TEST(Histogram, EmptyIsAllZero) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, TracksExactCountSumMinMax) {
  Histogram h;
  h.add(3.0);
  h.add(1.5);
  h.add(40.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 44.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.5);
  EXPECT_DOUBLE_EQ(h.max(), 40.0);
  EXPECT_DOUBLE_EQ(h.mean(), 44.5 / 3.0);
}

TEST(Histogram, ExtremeQuantilesAreExactMinAndMax) {
  Histogram h;
  h.add(0.37);
  h.add(123.456);
  h.add(7.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.37);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 123.456);
}

TEST(Histogram, QuantileRelativeErrorBounded) {
  // One sub-bucket spans a 1/128 relative slice of its octave, so any
  // quantile of a single-valued population lands within that slice.
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const double v =
        std::ldexp(rng.uniform(1.0, 2.0),
                   static_cast<int>(rng.uniform_int(-6, 24)));
    Histogram h;
    h.add(v);
    for (double q : {0.25, 0.5, 0.9, 0.99}) {
      // min/max clamping makes a single sample exact, so probe via two
      // samples in the same bucket region instead.
      h.add(v);
      EXPECT_NEAR(h.quantile(q), v, v / 64.0) << "v=" << v << " q=" << q;
    }
  }
}

TEST(Histogram, BucketIndexIsMonotoneAndInvertible) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const double v =
        std::ldexp(rng.uniform(1.0, 2.0),
                   static_cast<int>(rng.uniform_int(-8, 28)));
    const int idx = Histogram::bucket_index(v);
    EXPECT_GE(v, Histogram::bucket_lo(idx)) << v;
    EXPECT_LT(v, Histogram::bucket_hi(idx)) << v;
  }
  // Adjacent bucket edges touch (no gaps, no overlap).
  for (int idx = 0; idx < 400; ++idx) {
    EXPECT_DOUBLE_EQ(Histogram::bucket_hi(idx),
                     Histogram::bucket_lo(idx + 1));
  }
}

TEST(Histogram, NegativeAndNanClampToBucketZero) {
  Histogram h;
  h.add(-5.0);
  h.add(0.0);
  EXPECT_EQ(h.count(), 2);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_EQ(Histogram::bucket_index(-1.0), 0);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0);
}

/// The merge property pin (~200 seeds): split a random population into a
/// random number of parts, merge the per-part histograms in a rotated
/// order, and require *bit-identical* quantiles against the unsplit
/// histogram. Counts/min/max are exact too; sum is floating addition and
/// only order-deterministic, so it gets a tolerance.
TEST(Histogram, MergedQuantilesBitIdenticalToWholePopulation) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    const int n = static_cast<int>(rng.uniform_int(1, 400));
    const int parts = static_cast<int>(rng.uniform_int(1, 9));

    Histogram whole;
    std::vector<Histogram> split(parts);
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
      const double v =
          std::ldexp(rng.uniform(1.0, 2.0),
                     static_cast<int>(rng.uniform_int(-6, 20)));
      whole.add(v);
      split[static_cast<int>(rng.uniform_int(0, parts - 1))].add(v);
      sum += v;
    }
    // Merge in a seed-dependent rotation: order must not matter.
    Histogram merged;
    const int start = static_cast<int>(seed) % parts;
    for (int k = 0; k < parts; ++k) {
      merged.merge(split[(start + k) % parts]);
    }

    ASSERT_EQ(merged.count(), whole.count()) << "seed " << seed;
    EXPECT_DOUBLE_EQ(merged.min(), whole.min()) << "seed " << seed;
    EXPECT_DOUBLE_EQ(merged.max(), whole.max()) << "seed " << seed;
    for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99,
                     0.999, 1.0}) {
      // Bit-identical, not approximately equal: bucket counts are
      // integers, so the interpolation arithmetic sees the same inputs.
      EXPECT_EQ(merged.quantile(q), whole.quantile(q))
          << "seed " << seed << " q=" << q;
    }
    EXPECT_NEAR(merged.sum(), sum, std::abs(sum) * 1e-12);
  }
}

TEST(Histogram, MergeEmptyIsIdentity) {
  Histogram a;
  a.add(2.0);
  a.add(8.0);
  Histogram empty;
  Histogram b = a;
  b.merge(empty);
  EXPECT_EQ(b.count(), a.count());
  EXPECT_EQ(b.p50(), a.p50());
  Histogram c;
  c.merge(a);
  EXPECT_EQ(c.count(), a.count());
  EXPECT_EQ(c.p99(), a.p99());
  EXPECT_DOUBLE_EQ(c.min(), a.min());
  EXPECT_DOUBLE_EQ(c.max(), a.max());
}

/// The layout the windowed histogram replaced: a count for every bucket
/// from index 0 to the top one, read with the same interpolation. The
/// windowed layout must agree with it bit for bit.
struct FullExtent {
  static constexpr int kBuckets =
      (Histogram::kMaxExponent + 2) * Histogram::kSubBuckets;
  std::vector<std::int64_t> counts = std::vector<std::int64_t>(kBuckets, 0);
  std::int64_t count = 0;
  double min = 0.0;
  double max = 0.0;

  void add(double v) {
    if (!(v > 0.0)) v = 0.0;
    ++counts[Histogram::bucket_index(v)];
    min = count ? std::min(min, v) : v;
    max = count ? std::max(max, v) : v;
    ++count;
  }
  void merge(const FullExtent& other) {
    if (other.count == 0) return;
    for (int i = 0; i < kBuckets; ++i) counts[i] += other.counts[i];
    min = count ? std::min(min, other.min) : other.min;
    max = count ? std::max(max, other.max) : other.max;
    count += other.count;
  }
  double quantile(double q) const {
    if (count == 0) return 0.0;
    if (q == 0.0) return min;
    if (q == 1.0) return max;
    const double rank = q * static_cast<double>(count - 1);
    std::int64_t cum = 0;
    for (int i = 0; i < kBuckets; ++i) {
      const std::int64_t c = counts[i];
      if (c == 0) continue;
      if (rank < static_cast<double>(cum + c)) {
        const double lo = Histogram::bucket_lo(i);
        const double hi = Histogram::bucket_hi(i);
        const double within =
            (rank - static_cast<double>(cum) + 0.5) / static_cast<double>(c);
        return std::clamp(lo + (hi - lo) * within, min, max);
      }
      cum += c;
    }
    return max;
  }
};

/// One sample of a seeded mix: a narrow band around `center`, a wide
/// log-uniform band, values below 1, exact zeros and values past the top
/// octave.
double mixed_sample(Rng& rng, double center) {
  const double pick = rng.uniform(0.0, 1.0);
  if (pick < 0.55) return center * rng.uniform(1.0, 1.02);
  if (pick < 0.80) {
    return std::ldexp(rng.uniform(1.0, 2.0),
                      static_cast<int>(rng.uniform_int(-6, 24)));
  }
  if (pick < 0.90) return rng.uniform(0.0, 1.0);
  if (pick < 0.95) return 0.0;
  return std::ldexp(rng.uniform(1.0, 2.0),
                    static_cast<int>(rng.uniform_int(31, 60)));
}

constexpr double kProbes[] = {0.0,  0.01, 0.1,  0.25, 0.5,  0.75,
                              0.9,  0.95, 0.99, 0.999, 1.0};

void expect_same(const Histogram& h, const FullExtent& ref,
                 const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(h.count(), ref.count);
  EXPECT_EQ(h.min(), ref.min);
  EXPECT_EQ(h.max(), ref.max);
  for (double q : kProbes) EXPECT_EQ(h.quantile(q), ref.quantile(q)) << q;
}

/// The windowed layout against the full-extent model (~200 seeds). Each
/// part draws mostly from its own narrow band, so part windows lie wholly
/// below, above or inside one another. The parts (with an empty one among
/// them) are merged one by one in a rotated order into an empty histogram,
/// and all at once through merge(parts) and quantiles(parts, ...).
TEST(Histogram, WindowedLayoutMatchesAFullExtentModel) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed + 1000);
    const int parts = static_cast<int>(rng.uniform_int(1, 9));
    std::vector<double> centers(parts);
    for (double& c : centers) {
      c = std::ldexp(rng.uniform(1.0, 2.0),
                     static_cast<int>(rng.uniform_int(-4, 12)));
    }
    // One more part that stays empty.
    std::vector<Histogram> split(parts + 1);
    std::vector<FullExtent> ref_split(parts + 1);
    Histogram whole;
    FullExtent ref_whole;
    const int n = static_cast<int>(rng.uniform_int(1, 600));
    for (int i = 0; i < n; ++i) {
      const int k = static_cast<int>(rng.uniform_int(0, parts - 1));
      const double v = mixed_sample(rng, centers[k]);
      split[k].add(v);
      ref_split[k].add(v);
      whole.add(v);
      ref_whole.add(v);
    }
    std::rotate(split.begin(), split.begin() + seed % split.size(),
                split.end());
    std::rotate(ref_split.begin(), ref_split.begin() + seed % split.size(),
                ref_split.end());
    for (std::size_t k = 0; k < split.size(); ++k) {
      expect_same(split[k], ref_split[k], "part " + std::to_string(k));
    }
    expect_same(whole, ref_whole, "whole");

    Histogram merged;
    FullExtent ref_merged;
    for (std::size_t k = 0; k < split.size(); ++k) {
      merged.merge(split[k]);
      ref_merged.merge(ref_split[k]);
      expect_same(merged, ref_merged,
                  "merged through part " + std::to_string(k));
    }
    expect_same(merged, ref_whole, "merged");

    std::vector<const Histogram*> ptrs;
    for (const Histogram& h : split) ptrs.push_back(&h);
    const std::span<const Histogram* const> all(ptrs);
    Histogram folded;
    folded.merge(all);
    expect_same(folded, ref_whole, "merge(parts)");
    const auto [p50, p99] = Histogram::quantiles(all, 0.5, 0.99);
    EXPECT_EQ(p50, ref_whole.quantile(0.5));
    EXPECT_EQ(p99, ref_whole.quantile(0.99));

    // A non-empty target widened by the rest in one merge(parts).
    Histogram target = split[0];
    target.merge(all.subspan(1));
    expect_same(target, ref_whole, "first part + merge(rest)");
  }
}

/// A part's window lying wholly below, wholly above, or inside the
/// target's grows the target's window or adds in place, and an empty
/// histogram on either side of a merge changes nothing.
TEST(Histogram, MergeWidensTheWindowEitherWay) {
  auto build = [](std::initializer_list<double> vs) {
    Histogram h;
    FullExtent ref;
    for (double v : vs) {
      h.add(v);
      ref.add(v);
    }
    return std::pair{h, ref};
  };
  auto [target, ref] = build({40.0, 41.0, 60.0});
  const auto [below, ref_below] = build({0.0, 0.3, 2.0});
  const auto [above, ref_above] = build({500.0, 1e12});
  const auto [inside, ref_inside] = build({45.0, 50.0, 50.0});
  const Histogram empty;
  const FullExtent ref_empty;
  target.merge(below);
  ref.merge(ref_below);
  expect_same(target, ref, "below");
  target.merge(above);
  ref.merge(ref_above);
  expect_same(target, ref, "above");
  target.merge(inside);
  ref.merge(ref_inside);
  expect_same(target, ref, "inside");
  target.merge(empty);
  ref.merge(ref_empty);
  expect_same(target, ref, "empty merged in");
  Histogram fresh;
  fresh.merge(target);
  expect_same(fresh, ref, "merged into empty");
}

TEST(Histogram, SaturatesAboveTopOctaveWithoutLosingCounts) {
  Histogram h;
  h.add(1e30);  // far above 2^31
  h.add(5.0);
  EXPECT_EQ(h.count(), 2);
  EXPECT_DOUBLE_EQ(h.max(), 1e30);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1e30);
}

}  // namespace
}  // namespace sgprs::common
