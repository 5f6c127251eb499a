// build_iv_surface solves several v-rows in lockstep; every cell must still
// be exactly the scalar pv_current solve along its row's warm-start chain.
// The same holds for a surface solved block by block on first touch
// (IvSurface::Filler), in any block order and under any knot limit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "common/solver_stats.hpp"
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

// ---------------------------------------------------------------------------
// First-touch fill.
// ---------------------------------------------------------------------------

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every cell of `iv` (one slice) against the scalar build: solved cells
/// (knots below the filler's limit, in filled blocks) bit for bit, every
/// other cell NaN.  A block re-opened by a raised limit keeps the cells it
/// solved before, below knot `kept`, until it is solved again.
void expect_filled_region(const flat::IvSurface& iv,
                          const flat::IvSurface::Filler& fill,
                          const std::vector<double>& ref, int kept = 0) {
  std::size_t solved_bad = 0, unsolved_bad = 0;
  for (int vi = 0; vi < iv.v_knots; ++vi) {
    const bool block_filled =
        fill.filled[static_cast<std::size_t>(vi / flat::kIvRowLanes)] != 0;
    for (int gi = 0; gi < iv.g_knots; ++gi) {
      const std::size_t k = static_cast<std::size_t>(vi * iv.g_knots + gi);
      if (gi < (block_filled ? fill.g_count : kept)) {
        if (!same_bits(iv.vals[k], ref[k])) ++solved_bad;
      } else if (!std::isnan(iv.vals[k])) {
        ++unsolved_bad;
      }
    }
  }
  EXPECT_EQ(solved_bad, 0U) << "g_count=" << fill.g_count;
  EXPECT_EQ(unsolved_bad, 0U) << "g_count=" << fill.g_count;
}

TEST(IvSurfaceFirstTouch, BlocksMatchScalarInAnyOrder) {
  // 162 rows: 40 full blocks and a 2-row tail block.
  constexpr int kV = 162, kG = 64;
  constexpr double kVMax = 1.7, kGMax = 1.25;
  const std::vector<double> ref =
      scalar_surface({1.0}, PvCellParams{}, kVMax, kV, kGMax, kG);
  const std::size_t blocks = (kV + flat::kIvRowLanes - 1) / flat::kIvRowLanes;

  std::vector<std::size_t> forward(blocks);
  std::iota(forward.begin(), forward.end(), 0);
  std::vector<std::size_t> reverse(forward.rbegin(), forward.rend());
  std::vector<std::size_t> shuffled = forward;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(2018));

  for (const double g_peak : {0.0, 0.3, 1.0, 10.0}) {
    for (const auto* order : {&forward, &reverse, &shuffled}) {
      flat::IvSurface iv = flat::size_iv_surface({1.0}, kVMax, kV, kGMax, kG);
      flat::IvSurface::Filler fill(iv, PvCellParams{});
      fill.cover(g_peak);
      EXPECT_EQ(fill.g_count,
                std::min(kG, static_cast<int>(g_peak / iv.dg) + 3));
      // Half the blocks, then the rest: the unsolved half stays NaN.
      for (std::size_t i = 0; i < blocks; ++i) {
        if (i == blocks / 2) expect_filled_region(iv, fill, ref);
        fill.touch((*order)[i] * flat::kIvRowLanes);
      }
      expect_filled_region(iv, fill, ref);
    }
  }
}

TEST(IvSurfaceFirstTouch, TouchSolvesBothRowsOfACell) {
  flat::IvSurface iv = flat::size_iv_surface({1.0}, 1.7, 160, 1.25, 64);
  flat::IvSurface::Filler fill(iv, PvCellParams{});
  fill.cover(1.0);
  const auto before = solver_stats::iv_cells_solved().load();
  fill.touch(7);  // rows 7 and 8 straddle blocks 1 and 2
  EXPECT_EQ(solver_stats::iv_cells_solved().load() - before,
            static_cast<std::uint64_t>(2 * flat::kIvRowLanes * fill.g_count));
  EXPECT_EQ(fill.filled[0], 0);
  EXPECT_EQ(fill.filled[1], 1);
  EXPECT_EQ(fill.filled[2], 1);
  EXPECT_EQ(fill.filled[3], 0);
  const auto after = solver_stats::iv_cells_solved().load();
  fill.touch(5);  // already solved: no work
  fill.touch(8);
  EXPECT_EQ(solver_stats::iv_cells_solved().load(), after);
}

TEST(IvSurfaceFirstTouch, CoverRaisesTheKnotLimitAndReopens) {
  constexpr int kV = 41, kG = 17;
  const std::vector<double> ref =
      scalar_surface({1.0}, PvCellParams{}, 1.7, kV, 1.25, kG);
  flat::IvSurface iv = flat::size_iv_surface({1.0}, 1.7, kV, 1.25, kG);
  flat::IvSurface::Filler fill(iv, PvCellParams{});
  fill.cover(0.3);
  const int dim = fill.g_count;
  for (int vi = 0; vi < kV; vi += flat::kIvRowLanes) fill.touch(vi);
  expect_filled_region(iv, fill, ref);

  fill.cover(0.1);  // a dimmer peak keeps the wider limit and the blocks
  EXPECT_EQ(fill.g_count, dim);
  EXPECT_TRUE(std::all_of(fill.filled.begin(), fill.filled.end(),
                          [](unsigned char f) { return f != 0; }));

  fill.cover(1.0);  // a brighter one re-opens every block
  EXPECT_GT(fill.g_count, dim);
  EXPECT_TRUE(std::none_of(fill.filled.begin(), fill.filled.end(),
                           [](unsigned char f) { return f != 0; }));
  fill.touch(12);
  expect_filled_region(iv, fill, ref, /*kept=*/dim);
}

TEST(IvSurfaceFirstTouch, ReadsMatchTheEagerSurface) {
  // A first-touch Bound reads exactly what the eager surface's Bound reads,
  // through cell_i and the row cursor, everywhere up to the covered peak.
  constexpr double kPeak = 0.8;
  const flat::IvSurface eager =
      flat::build_iv_surface({1.0}, PvCellParams{}, 1.7, 160, 1.25, 64);
  flat::IvSurface lazy = flat::size_iv_surface({1.0}, 1.7, 160, 1.25, 64);
  flat::IvSurface::Filler fill(lazy, PvCellParams{});
  fill.cover(kPeak);
  const flat::IvSurface::Bound want = eager.bind(1.0);
  flat::IvSurface::Bound got = lazy.bind(1.0);
  got.fill = &fill;
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> vd(-0.1, 1.8), gd(0.0, kPeak);
  std::size_t bad = 0;
  for (int n = 0; n < 2000; ++n) {
    const double v = vd(rng), g = gd(rng);
    double dw = 0.0, dg = 0.0;
    if (!same_bits(want.cell_i(v, g, &dw), got.cell_i(v, g, &dg)) ||
        !same_bits(dw, dg)) {
      ++bad;
    }
    flat::IvSurface::Bound::RowCursor rw = want.bind_row(g);
    flat::IvSurface::Bound::RowCursor rg = got.bind_row(g);
    if (!same_bits(want.cell_i_row(v, rw), got.cell_i_row(v, rg))) ++bad;
  }
  EXPECT_EQ(bad, 0U);
  // The peak itself, and the grid's top v-edge.
  EXPECT_TRUE(same_bits(want.cell_i(1.7, kPeak), got.cell_i(1.7, kPeak)));
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
