#include "common/time.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace sgprs::common {
namespace {

TEST(SimTime, ZeroAndMax) {
  EXPECT_EQ(SimTime::zero().ns, 0);
  EXPECT_TRUE(SimTime::max().is_max());
  EXPECT_FALSE(SimTime::zero().is_max());
}

TEST(SimTime, UnitConversionsRoundTrip) {
  EXPECT_EQ(SimTime::from_ms(1.0).ns, 1'000'000);
  EXPECT_EQ(SimTime::from_us(1.0).ns, 1'000);
  EXPECT_EQ(SimTime::from_sec(1.0).ns, 1'000'000'000);
  EXPECT_DOUBLE_EQ(SimTime::from_ms(33.25).to_ms(), 33.25);
  EXPECT_DOUBLE_EQ(SimTime::from_sec(2.5).to_sec(), 2.5);
}

TEST(SimTime, ConversionsSaturateOutOfRange) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(SimTime::from_sec(9.3).ns, 9'300'000'000);
  EXPECT_EQ(SimTime::from_sec(9.3e9).ns, kMax);  // 9.3e18 ns
  EXPECT_EQ(SimTime::from_sec(-9.3e9).ns, kMin);
  EXPECT_EQ(SimTime::from_ms(9.3e12).ns, kMax);
  EXPECT_EQ(SimTime::from_us(-9.3e15).ns, kMin);
  EXPECT_EQ(SimTime::from_sec(inf).ns, kMax);
  EXPECT_EQ(SimTime::from_ms(-inf).ns, kMin);
  EXPECT_EQ(SimTime::from_us(inf).ns, kMax);
  EXPECT_EQ(SimTime::from_sec(1e308).ns, kMax);
  // The int64 limits themselves, as doubles, still convert.
  EXPECT_EQ(SimTime::from_ns_saturated(-0x1p63).ns, kMin);
  EXPECT_EQ(SimTime::from_ns_saturated(0x1p63).ns, kMax);
  // In range, a conversion truncates exactly as a plain cast does.
  EXPECT_EQ(SimTime::from_sec(1.5).ns, 1'500'000'000);
  EXPECT_EQ(SimTime::from_us(-2.7).ns, -2'700);
  EXPECT_EQ(SimTime::from_ns_saturated(0x1.fffffffffffffp62).ns,
            static_cast<std::int64_t>(0x1.fffffffffffffp62));
}

TEST(SimTime, ConversionFromNanFailsACheck) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(SimTime::from_sec(nan), CheckError);
  EXPECT_THROW(SimTime::from_ms(nan), CheckError);
  EXPECT_THROW(SimTime::from_us(nan), CheckError);
}

TEST(SimTime, Arithmetic) {
  const auto a = SimTime::from_ms(10);
  const auto b = SimTime::from_ms(3);
  EXPECT_EQ((a + b).ns, SimTime::from_ms(13).ns);
  EXPECT_EQ((a - b).ns, SimTime::from_ms(7).ns);
  EXPECT_EQ((b * 4).ns, SimTime::from_ms(12).ns);
  auto c = a;
  c += b;
  EXPECT_EQ(c, SimTime::from_ms(13));
  c -= b;
  EXPECT_EQ(c, a);
}

TEST(SimTime, Comparisons) {
  EXPECT_LT(SimTime::from_us(999), SimTime::from_ms(1));
  EXPECT_GT(SimTime::from_sec(1), SimTime::from_ms(999));
  EXPECT_EQ(SimTime::from_ms(1), SimTime::from_us(1000));
  EXPECT_LE(SimTime::zero(), SimTime::zero());
}

TEST(SimTime, ToStringPicksUnits) {
  EXPECT_EQ(to_string(SimTime::from_sec(2.0)), "2.000 s");
  EXPECT_EQ(to_string(SimTime::from_ms(5.5)), "5.500 ms");
  EXPECT_EQ(to_string(SimTime::from_us(12.0)), "12.000 us");
  EXPECT_EQ(to_string(SimTime::max()), "+inf");
}

}  // namespace
}  // namespace sgprs::common
