#include "common/interpolation.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"

namespace hemp {
namespace {

PiecewiseLinear make_ramp() {
  return PiecewiseLinear({{0.0, 0.0}, {1.0, 2.0}, {2.0, 3.0}});
}

TEST(PiecewiseLinear, InterpolatesInsideSegments) {
  const auto t = make_ramp();
  EXPECT_DOUBLE_EQ(t(0.5), 1.0);
  EXPECT_DOUBLE_EQ(t(1.5), 2.5);
}

TEST(PiecewiseLinear, HitsKnotsExactly) {
  const auto t = make_ramp();
  EXPECT_DOUBLE_EQ(t(0.0), 0.0);
  EXPECT_DOUBLE_EQ(t(1.0), 2.0);
  EXPECT_DOUBLE_EQ(t(2.0), 3.0);
}

TEST(PiecewiseLinear, ClampsOutOfRangeByDefault) {
  const auto t = make_ramp();
  EXPECT_DOUBLE_EQ(t(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(t(9.0), 3.0);
}

TEST(PiecewiseLinear, ExtrapolatesWhenEnabled) {
  auto t = make_ramp();
  t.extrapolate();
  EXPECT_DOUBLE_EQ(t(-1.0), -2.0);  // slope 2 on the first segment
  EXPECT_DOUBLE_EQ(t(3.0), 4.0);    // slope 1 on the last segment
}

TEST(PiecewiseLinear, RejectsNanQuery) {
  // A NaN passes neither clamp test; it must not reach the segment search.
  auto t = make_ramp();
  EXPECT_THROW((void)t(std::numeric_limits<double>::quiet_NaN()), ModelError);
  t.extrapolate();
  EXPECT_THROW((void)t(std::numeric_limits<double>::quiet_NaN()), ModelError);
}

TEST(PiecewiseLinear, ParallelVectorConstructor) {
  const PiecewiseLinear t({0.0, 1.0}, {5.0, 7.0});
  EXPECT_DOUBLE_EQ(t(0.5), 6.0);
}

TEST(PiecewiseLinear, RejectsTooFewKnots) {
  EXPECT_THROW(PiecewiseLinear({{0.0, 0.0}}), ModelError);
}

TEST(PiecewiseLinear, RejectsNonIncreasingX) {
  using Knots = std::vector<std::pair<double, double>>;
  EXPECT_THROW(PiecewiseLinear(Knots{{0.0, 0.0}, {0.0, 1.0}}), ModelError);
  EXPECT_THROW(PiecewiseLinear(Knots{{1.0, 0.0}, {0.0, 1.0}}), ModelError);
}

TEST(PiecewiseLinear, RejectsMismatchedVectors) {
  EXPECT_THROW(PiecewiseLinear({0.0, 1.0}, {5.0}), ModelError);
}

TEST(PiecewiseLinear, MonotonicityDetection) {
  EXPECT_TRUE(make_ramp().monotone_increasing());
  EXPECT_FALSE(make_ramp().monotone_decreasing());
  const PiecewiseLinear dec({{0.0, 3.0}, {1.0, 1.0}, {2.0, 0.0}});
  EXPECT_TRUE(dec.monotone_decreasing());
  EXPECT_FALSE(dec.monotone_increasing());
  const PiecewiseLinear flat(
      std::vector<std::pair<double, double>>{{0.0, 1.0}, {1.0, 1.0}});
  EXPECT_FALSE(flat.monotone_increasing());
  EXPECT_FALSE(flat.monotone_decreasing());
}

TEST(PiecewiseLinear, InverseOfIncreasingTable) {
  const auto t = make_ramp();
  EXPECT_DOUBLE_EQ(t.inverse(1.0), 0.5);
  EXPECT_DOUBLE_EQ(t.inverse(2.5), 1.5);
  EXPECT_DOUBLE_EQ(t.inverse(-1.0), 0.0);  // clamped below
  EXPECT_DOUBLE_EQ(t.inverse(99.0), 2.0);  // clamped above
}

TEST(PiecewiseLinear, InverseOfDecreasingTable) {
  const PiecewiseLinear dec({{0.0, 4.0}, {1.0, 2.0}, {2.0, 1.0}});
  EXPECT_DOUBLE_EQ(dec.inverse(3.0), 0.5);
  EXPECT_DOUBLE_EQ(dec.inverse(1.5), 1.5);
}

TEST(PiecewiseLinear, InverseRejectsNonMonotone) {
  const PiecewiseLinear vee({{0.0, 1.0}, {1.0, 0.0}, {2.0, 1.0}});
  EXPECT_THROW((void)vee.inverse(0.5), ModelError);
}

// Property: forward then inverse round-trips on a monotone table.
class RoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(RoundTrip, InverseUndoesForward) {
  const auto t = make_ramp();
  const double x = GetParam();
  EXPECT_NEAR(t.inverse(t(x)), x, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(XSweep, RoundTrip,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0));

}  // namespace
}  // namespace hemp
