#include "harvester/iv_curve.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/numeric.hpp"

namespace hemp {
namespace {

TEST(IvCurve, SpansZeroToVoc) {
  const PvCell cell = make_ixys_kxob22_cell();
  const IvCurve curve(cell, 1.0);
  EXPECT_DOUBLE_EQ(curve.points().front().voltage.value(), 0.0);
  EXPECT_NEAR(curve.open_circuit_voltage().value(),
              cell.open_circuit_voltage(1.0).value(), 1e-9);
  EXPECT_NEAR(curve.short_circuit_current().value(),
              cell.short_circuit_current(1.0).value(), 1e-9);
}

TEST(IvCurve, InterpolationMatchesModel) {
  const PvCell cell = make_ixys_kxob22_cell();
  const IvCurve curve(cell, 1.0, 512);
  for (double v : {0.3, 0.7, 1.1, 1.3}) {
    EXPECT_NEAR(curve.current_at(Volts(v)).value(), cell.current(Volts(v), 1.0).value(),
                2e-4);
  }
}

TEST(IvCurve, ClampsOutsideSweep) {
  const PvCell cell = make_ixys_kxob22_cell();
  const IvCurve curve(cell, 0.5);
  EXPECT_DOUBLE_EQ(curve.current_at(Volts(5.0)).value(),
                   curve.points().back().current.value());
}

TEST(IvCurve, RejectsTooFewSamples) {
  const PvCell cell = make_ixys_kxob22_cell();
  EXPECT_THROW(IvCurve(cell, 1.0, 4), ModelError);
}

TEST(FindMpp, FullSunMppMatchesCalibration) {
  const PvCell cell = make_ixys_kxob22_cell();
  const MaxPowerPoint mpp = find_mpp(cell, 1.0);
  // Calibration targets from DESIGN.md: ~1.19 V, ~16 mW.
  EXPECT_NEAR(mpp.voltage.value(), 1.19, 0.05);
  EXPECT_NEAR(mpp.power.value(), 16e-3, 1.5e-3);
  EXPECT_NEAR(mpp.power.value(), (mpp.voltage * mpp.current).value(), 1e-9);
}

TEST(FindMpp, ZeroIrradianceDegenerates) {
  const PvCell cell = make_ixys_kxob22_cell();
  const MaxPowerPoint mpp = find_mpp(cell, 0.0);
  EXPECT_DOUBLE_EQ(mpp.power.value(), 0.0);
}

TEST(FindMpp, MppPowerScalesRoughlyWithIrradiance) {
  const PvCell cell = make_ixys_kxob22_cell();
  const double p_full = find_mpp(cell, 1.0).power.value();
  const double p_half = find_mpp(cell, 0.5).power.value();
  // Slightly less than half (Voc drops too).
  EXPECT_LT(p_half, 0.5 * p_full);
  EXPECT_GT(p_half, 0.42 * p_full);
}

TEST(MppCaptureRatio, OneAtMppAndBelowOneElsewhere) {
  const PvCell cell = make_ixys_kxob22_cell();
  const MaxPowerPoint mpp = find_mpp(cell, 1.0);
  EXPECT_NEAR(mpp_capture_ratio(cell, 1.0, mpp.voltage), 1.0, 1e-4);
  EXPECT_LT(mpp_capture_ratio(cell, 1.0, Volts(0.5)), 0.6);
  EXPECT_LT(mpp_capture_ratio(cell, 1.0, Volts(1.45)), 0.5);
}

// Property: MPP voltage sits strictly inside (0, Voc) and its power dominates
// a sampling of other operating voltages, across light levels.
class MppDominance : public ::testing::TestWithParam<double> {};

TEST_P(MppDominance, MppDominatesSweep) {
  const PvCell cell = make_ixys_kxob22_cell();
  const double g = GetParam();
  const MaxPowerPoint mpp = find_mpp(cell, g);
  const double voc = cell.open_circuit_voltage(g).value();
  EXPECT_GT(mpp.voltage.value(), 0.0);
  EXPECT_LT(mpp.voltage.value(), voc);
  for (double v = 0.05; v < voc; v += 0.05) {
    EXPECT_LE(cell.power(Volts(v), g).value(), mpp.power.value() * (1.0 + 1e-6));
  }
}

INSTANTIATE_TEST_SUITE_P(IrradianceSweep, MppDominance,
                         ::testing::Values(0.05, 0.12, 0.25, 0.5, 0.75, 1.0));

// Property: find_mpp's concave grid search returns exactly — bit for bit —
// what the full 96-point grid scan with the same refine returns, across the
// fleet's whole cell population: pv-scale, panel temperature and light.
MaxPowerPoint full_scan_mpp(const PvCell& cell, double g) {
  const Volts voc = cell.open_circuit_voltage(g);
  auto p = [&](double v) { return cell.power(Volts(v), g).value(); };
  const auto r = numeric::grid_refine_maximize(p, 0.0, voc.value(),
                                               {.x_tol = 1e-6, .grid_points = 96});
  const Volts vmpp(r.x);
  return {vmpp, cell.current(vmpp, g), Watts(r.value)};
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(FindMpp, MatchesFullGridScanBitwise) {
  std::vector<PvCellParams> bases = {PvCellParams{}};
  for (double t = -20.0; t <= 85.0; t += 15.0) {
    bases.push_back(make_ixys_kxob22_cell_at(t).params());
  }
  std::vector<double> gs;
  for (double g = 1e-4; g < 1.5; g *= 1.25) gs.push_back(g);
  gs.push_back(1.5);
  int cases = 0, mismatches = 0;
  for (const PvCellParams& base : bases) {
    for (double s = 0.2; s <= 3.0 + 1e-9; s += 0.1) {
      PvCellParams scaled = base;
      scaled.isc_full_sun = base.isc_full_sun * s;
      const PvCell cell(scaled);
      for (const double g : gs) {
        const MaxPowerPoint got = find_mpp(cell, g);
        const MaxPowerPoint want = full_scan_mpp(cell, g);
        ++cases;
        if (!same_bits(got.voltage.value(), want.voltage.value()) ||
            !same_bits(got.current.value(), want.current.value()) ||
            !same_bits(got.power.value(), want.power.value())) {
          ++mismatches;
          ADD_FAILURE() << "scale " << s << " g " << g << ": V "
                        << got.voltage.value() << " vs " << want.voltage.value();
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(cases, 10000);
}

}  // namespace
}  // namespace hemp
