// build_iv_surface solves several v-rows in lockstep; every cell must still
// be exactly the scalar pv_current solve along its row's warm-start chain.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <vector>

#include "harvester/pv_cell.hpp"
#include "sim/flat_model.hpp"

namespace hemp {
namespace {

/// The surface as a cell-by-cell scalar build: per slice, per row, a warm
/// start chained along g from zero — the layout build_iv_surface documents.
std::vector<double> scalar_surface(const std::vector<double>& s_knots,
                                   const PvCellParams& base, double v_max,
                                   int v_knots, double g_max, int g_knots) {
  const double dv = v_max / (v_knots - 1);
  const double dg = g_max / (g_knots - 1);
  std::vector<double> vals;
  for (const double s : s_knots) {
    PvCellParams scaled = base;
    scaled.isc_full_sun = base.isc_full_sun * s;
    const flat::FlatPv pv = flat::make_flat_pv(scaled);
    for (int vi = 0; vi < v_knots; ++vi) {
      double warm = 0.0;
      for (int gi = 0; gi < g_knots; ++gi) {
        vals.push_back(flat::pv_current(pv, vi * dv, gi * dg, warm));
      }
    }
  }
  return vals;
}

void expect_bitwise_scalar(const std::vector<double>& s_knots,
                           const PvCellParams& base, double v_max, int v_knots,
                           double g_max, int g_knots) {
  const flat::IvSurface iv =
      flat::build_iv_surface(s_knots, base, v_max, v_knots, g_max, g_knots);
  const std::vector<double> ref =
      scalar_surface(s_knots, base, v_max, v_knots, g_max, g_knots);
  ASSERT_EQ(iv.vals.size(), ref.size());
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < ref.size(); ++k) {
    if (std::memcmp(&iv.vals[k], &ref[k], sizeof(double)) != 0) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0U) << "v_knots=" << v_knots << " g_knots=" << g_knots
                            << " slices=" << s_knots.size();
}

TEST(IvSurfaceBuild, MultiSliceMatchesScalarBitwise) {
  // The batch kernel's shape: 13 pv-scale slices of 160 x 64 cells.
  std::vector<double> s_knots;
  for (int i = 0; i < 13; ++i) s_knots.push_back(0.6 + 0.8 * i / 12);
  expect_bitwise_scalar(s_knots, PvCellParams{}, 1.7, 160, 1.25, 64);
}

TEST(IvSurfaceBuild, TailRowsMatchScalarBitwise) {
  // Row counts that leave 1, 2 and 3 rows past the last full lane group, and
  // grids smaller than one group.
  const PvCell hot = make_ixys_kxob22_cell_at(70.0);
  for (const int v_knots : {2, 3, 5, 161, 162, 163}) {
    expect_bitwise_scalar({0.4, 1.9}, hot.params(), 1.6, v_knots, 1.5, 9);
  }
}

TEST(IvSurfaceBuild, ZeroIrradianceColumnIsZero) {
  // g = 0 is the first column of every surface: no photocurrent, no solve.
  const flat::IvSurface iv =
      flat::build_iv_surface({1.0}, PvCellParams{}, 1.7, 21, 1.0, 2);
  for (int vi = 0; vi < iv.v_knots; ++vi) {
    EXPECT_EQ(iv.vals[static_cast<std::size_t>(vi * iv.g_knots)], 0.0);
  }
  expect_bitwise_scalar({1.0}, PvCellParams{}, 1.7, 21, 1.0, 2);
}

TEST(IvSurfaceBuild, SlicesFilledInReverseMatchBuild) {
  // The batch kernel fills slices as independent work units in whatever
  // order its workers take them; any order must give build_iv_surface's bits.
  std::vector<double> s_knots;
  for (int i = 0; i < 5; ++i) s_knots.push_back(0.5 + 0.25 * i);
  const flat::IvSurface want =
      flat::build_iv_surface(s_knots, PvCellParams{}, 1.7, 41, 1.25, 17);
  flat::IvSurface got = flat::size_iv_surface(s_knots, 1.7, 41, 1.25, 17);
  for (std::size_t i = s_knots.size(); i-- > 0;) {
    flat::fill_iv_slice(got, PvCellParams{}, i);
  }
  EXPECT_EQ(got.s_knots, want.s_knots);
  EXPECT_EQ(got.v_knots, want.v_knots);
  EXPECT_EQ(got.g_knots, want.g_knots);
  EXPECT_EQ(got.dv, want.dv);
  EXPECT_EQ(got.dg, want.dg);
  ASSERT_EQ(got.vals.size(), want.vals.size());
  EXPECT_EQ(std::memcmp(got.vals.data(), want.vals.data(),
                        want.vals.size() * sizeof(double)),
            0);
}

TEST(MppSurfaceBuild, RowsFilledInReverseMatchBuild) {
  constexpr int kS = 6;
  constexpr int kG = 11;
  flat::MppSurface want =
      flat::build_mpp_surface(PvCellParams{}, 0.6, 1.4, kS, 0.005, 1.25, kG);
  flat::MppSurface got = flat::size_mpp_surface(0.6, 1.4, kS, 0.005, 1.25, kG);
  for (std::size_t i = kS; i-- > 0;) {
    flat::fill_mpp_row(got, PvCellParams{}, i);
  }
  EXPECT_EQ(got.s_knots, want.s_knots);
  EXPECT_EQ(got.g_knots, want.g_knots);
  // Rows are contiguous, so row(0) spans every cell of a grid.
  constexpr std::size_t kBytes = sizeof(double) * kS * kG;
  EXPECT_EQ(std::memcmp(got.vmpp->row(0), want.vmpp->row(0), kBytes), 0);
  EXPECT_EQ(std::memcmp(got.pmpp->row(0), want.pmpp->row(0), kBytes), 0);
}

}  // namespace
}  // namespace hemp
