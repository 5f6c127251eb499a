#include "common/numeric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"

namespace hemp::numeric {
namespace {

TEST(BisectRoot, FindsLinearRoot) {
  const double x = bisect_root([](double v) { return v - 0.3; }, 0.0, 1.0);
  EXPECT_NEAR(x, 0.3, 1e-8);
}

TEST(BisectRoot, FindsCubicRoot) {
  const double x = bisect_root([](double v) { return v * v * v - 8.0; }, 0.0, 3.0);
  EXPECT_NEAR(x, 2.0, 1e-7);
}

TEST(BisectRoot, AcceptsRootAtBracketEdge) {
  EXPECT_DOUBLE_EQ(bisect_root([](double v) { return v; }, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(bisect_root([](double v) { return v - 1.0; }, 0.0, 1.0), 1.0);
}

TEST(BisectRoot, RejectsSameSignBracket) {
  EXPECT_THROW(bisect_root([](double v) { return v + 2.0; }, 0.0, 1.0), ModelError);
}

TEST(BisectRoot, RejectsEmptyBracket) {
  EXPECT_THROW(bisect_root([](double v) { return v; }, 1.0, 0.0), ModelError);
}

TEST(BrentRoot, FindsTranscendentalRoot) {
  const double x = brent_root([](double v) { return std::cos(v) - v; }, 0.0, 1.0);
  EXPECT_NEAR(x, 0.7390851332, 1e-8);
}

TEST(BrentRoot, MatchesBisectionOnPolynomial) {
  auto f = [](double v) { return v * v - 2.0; };
  EXPECT_NEAR(brent_root(f, 0.0, 2.0), bisect_root(f, 0.0, 2.0), 1e-7);
}

TEST(BrentRoot, HandlesSteepFunction) {
  const double x = brent_root([](double v) { return std::expm1(20.0 * (v - 0.5)); },
                              0.0, 1.0);
  EXPECT_NEAR(x, 0.5, 1e-7);
}

TEST(BrentRoot, RejectsSameSignBracket) {
  EXPECT_THROW(brent_root([](double v) { return v + 1.0; }, 0.0, 1.0), ModelError);
}

TEST(GoldenSection, FindsParabolaMinimum) {
  const auto r = golden_section_minimize(
      [](double v) { return (v - 0.4) * (v - 0.4) + 1.0; }, 0.0, 1.0);
  EXPECT_NEAR(r.x, 0.4, 1e-5);
  EXPECT_NEAR(r.value, 1.0, 1e-9);
}

TEST(GoldenSection, HandlesBoundaryMinimum) {
  const auto r = golden_section_minimize([](double v) { return v; }, 0.0, 1.0);
  EXPECT_NEAR(r.x, 0.0, 1e-5);
}

TEST(GridRefine, FindsGlobalMinimumAmongTwoBasins) {
  // Two basins: local min at 0.2 (value 1), global at 0.8 (value 0.5).
  auto f = [](double v) {
    const double a = 1.0 + 50.0 * (v - 0.2) * (v - 0.2);
    const double b = 0.5 + 50.0 * (v - 0.8) * (v - 0.8);
    return std::min(a, b);
  };
  const auto r = grid_refine_minimize(f, 0.0, 1.0);
  EXPECT_NEAR(r.x, 0.8, 1e-4);
  EXPECT_NEAR(r.value, 0.5, 1e-6);
}

TEST(GridRefine, HandlesPiecewiseObjective) {
  // Sawtooth with the deepest notch at 0.61.
  auto f = [](double v) {
    const double frac = v * 5.0 - std::floor(v * 5.0);
    double base = frac;
    if (v > 0.6 && v < 0.64) base -= 0.5;
    return base;
  };
  const auto r = grid_refine_minimize(f, 0.0, 1.0, {.x_tol = 1e-7, .grid_points = 256});
  EXPECT_GT(r.x, 0.59);
  EXPECT_LT(r.x, 0.65);
}

TEST(GridRefine, MaximizeIsNegatedMinimize) {
  const auto r = grid_refine_maximize(
      [](double v) { return -(v - 0.3) * (v - 0.3) + 2.0; }, 0.0, 1.0);
  EXPECT_NEAR(r.x, 0.3, 1e-4);
  EXPECT_NEAR(r.value, 2.0, 1e-8);
}

TEST(GridRefine, RequiresAtLeastThreeGridPoints) {
  EXPECT_THROW(
      grid_refine_minimize([](double v) { return v; }, 0.0, 1.0,
                           {.x_tol = 1e-7, .grid_points = 2}),
      ModelError);
}

// --- concave_grid_refine_maximize: the full grid scan's result, bit for bit --

bool same_result(const MinimizeResult& a, const MinimizeResult& b) {
  return std::memcmp(&a.x, &b.x, sizeof a.x) == 0 &&
         std::memcmp(&a.value, &b.value, sizeof a.value) == 0;
}

template <class F>
void expect_matches_scan(const F& f, double lo, double hi,
                         const MinimizeOptions& opts = {}) {
  const MinimizeResult scan = grid_refine_maximize(f, lo, hi, opts);
  const MinimizeResult concave = concave_grid_refine_maximize(f, lo, hi, opts);
  EXPECT_TRUE(same_result(scan, concave))
      << "scan (" << scan.x << ", " << scan.value << ") vs concave ("
      << concave.x << ", " << concave.value << ")";
}

TEST(ConcaveGridRefine, PeakAtFirstGridPoint) {
  auto f = [](double v) { return 1.0 - v * v; };
  expect_matches_scan(f, 0.0, 1.0);
  EXPECT_NEAR(concave_grid_refine_maximize(f, 0.0, 1.0).x, 0.0, 1e-6);
}

TEST(ConcaveGridRefine, PeakAtLastGridPoint) {
  auto f = [](double v) { return std::sqrt(v); };
  expect_matches_scan(f, 0.0, 2.0);
  EXPECT_NEAR(concave_grid_refine_maximize(f, 0.0, 2.0).x, 2.0, 1e-6);
}

TEST(ConcaveGridRefine, TailPlateauOfZeros) {
  // The shape of P = V * I past open circuit: a concave bump, then zeros.
  auto f = [](double v) { return std::max(0.0, v * (0.6 - v)); };
  for (const int n : {3, 4, 7, 64, 96, 257}) {
    expect_matches_scan(f, 0.0, 1.0, {.x_tol = 1e-7, .grid_points = n});
  }
  EXPECT_NEAR(concave_grid_refine_maximize(f, 0.0, 1.0).x, 0.3, 1e-6);
  // All zeros: the first grid point is the first maximum.
  expect_matches_scan([](double) { return 0.0; }, 0.0, 1.0);
}

TEST(ConcaveGridRefine, AgreesWithScanOnConcaveParabolas) {
  for (double c = -0.3; c <= 1.3; c += 0.0137) {
    for (const int n : {3, 5, 64, 96}) {
      auto f = [c](double v) { return 2.0 - (v - c) * (v - c); };
      expect_matches_scan(f, 0.0, 1.0, {.x_tol = 1e-6, .grid_points = n});
    }
  }
}

TEST(ConcaveGridRefine, ProbesLogarithmicallyManyGridPoints) {
  auto f = [](double v) { return -(v - 0.37) * (v - 0.37); };
  int scan_calls = 0, concave_calls = 0;
  const MinimizeOptions opts{.x_tol = 1e-6, .grid_points = 96};
  (void)grid_refine_maximize([&](double v) { ++scan_calls; return f(v); }, 0.0,
                             1.0, opts);
  (void)concave_grid_refine_maximize(
      [&](double v) { ++concave_calls; return f(v); }, 0.0, 1.0, opts);
  // Same refine on both sides; the grid phase drops from 96 probes to at
  // most two per bisection step (ceil(log2 95) = 7 steps).
  EXPECT_LE(concave_calls, scan_calls - 96 + 14);
}

TEST(ConcaveGridRefine, RejectsDegenerateGrid) {
  EXPECT_THROW(concave_grid_refine_maximize([](double v) { return v; }, 0.0, 1.0,
                                            {.x_tol = 1e-7, .grid_points = 2}),
               ModelError);
  EXPECT_THROW(concave_grid_refine_maximize([](double v) { return v; }, 1.0, 0.0),
               ModelError);
}

TEST(Trapezoid, IntegratesLine) {
  EXPECT_NEAR(trapezoid_integral([](double v) { return v; }, 0.0, 1.0, 4), 0.5, 1e-12);
}

TEST(Trapezoid, IntegratesQuadraticWithRefinement) {
  const double coarse = trapezoid_integral([](double v) { return v * v; }, 0.0, 1.0, 8);
  const double fine = trapezoid_integral([](double v) { return v * v; }, 0.0, 1.0, 1024);
  EXPECT_NEAR(fine, 1.0 / 3.0, 1e-6);
  EXPECT_GT(std::fabs(coarse - 1.0 / 3.0), std::fabs(fine - 1.0 / 3.0));
}

TEST(Trapezoid, EmptyIntervalIsZero) {
  EXPECT_DOUBLE_EQ(trapezoid_integral([](double v) { return v; }, 2.0, 2.0), 0.0);
}

TEST(Clamp, OrdersInvertedBounds) {
  EXPECT_DOUBLE_EQ(clamp(5.0, 10.0, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(clamp(-1.0, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(clamp(11.0, 0.0, 10.0), 10.0);
}

TEST(ApproxEqual, RelativeAndAbsolute) {
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.001));
  EXPECT_TRUE(approx_equal(1e9, 1e9 * (1.0 + 1e-10)));
}

// Property sweep: Brent and bisection agree on a family of shifted cubics.
class RootAgreement : public ::testing::TestWithParam<double> {};

TEST_P(RootAgreement, BrentMatchesBisection) {
  const double shift = GetParam();
  auto f = [shift](double v) { return v * v * v - shift; };
  const double lo = 0.0, hi = 3.0;
  const double a = brent_root(f, lo, hi);
  const double b = bisect_root(f, lo, hi);
  EXPECT_NEAR(a, b, 1e-6);
  EXPECT_NEAR(a, std::cbrt(shift), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(ShiftSweep, RootAgreement,
                         ::testing::Values(0.5, 1.0, 2.0, 5.0, 10.0, 20.0));

}  // namespace
}  // namespace hemp::numeric
