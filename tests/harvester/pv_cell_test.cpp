#include "harvester/pv_cell.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/numeric.hpp"

namespace hemp {
namespace {

TEST(PvCell, FullSunEndpointsMatchCalibration) {
  const PvCell cell = make_ixys_kxob22_cell();
  EXPECT_NEAR(cell.short_circuit_current(1.0).value(), 15e-3, 0.5e-3);
  EXPECT_NEAR(cell.open_circuit_voltage(1.0).value(), 1.5, 0.01);
}

TEST(PvCell, CurrentIsFlatNearShortCircuit) {
  const PvCell cell = make_ixys_kxob22_cell();
  const Amps isc = cell.short_circuit_current(1.0);
  const Amps at_half_voc = cell.current(Volts(0.75), 1.0);
  // Photocurrent plateau: still within a few percent of Isc at half Voc.
  EXPECT_GT(at_half_voc.value(), 0.95 * isc.value());
}

TEST(PvCell, CurrentMonotonicallyDecreasesWithVoltage) {
  const PvCell cell = make_ixys_kxob22_cell();
  double prev = cell.current(Volts(0.0), 1.0).value();
  for (double v = 0.05; v <= 1.5; v += 0.05) {
    const double i = cell.current(Volts(v), 1.0).value();
    EXPECT_LE(i, prev + 1e-12) << "at " << v << " V";
    prev = i;
  }
}

TEST(PvCell, CurrentClampsToZeroPastVoc) {
  const PvCell cell = make_ixys_kxob22_cell();
  const Volts voc = cell.open_circuit_voltage(1.0);
  EXPECT_DOUBLE_EQ(cell.current(Volts(voc.value() + 0.1), 1.0).value(), 0.0);
}

TEST(PvCell, ZeroIrradianceProducesNoCurrent) {
  const PvCell cell = make_ixys_kxob22_cell();
  EXPECT_DOUBLE_EQ(cell.current(Volts(0.5), 0.0).value(), 0.0);
  EXPECT_DOUBLE_EQ(cell.power(Volts(0.5), 0.0).value(), 0.0);
  EXPECT_DOUBLE_EQ(cell.open_circuit_voltage(0.0).value(), 0.0);
}

TEST(PvCell, PhotocurrentScalesLinearlyWithIrradiance) {
  const PvCell cell = make_ixys_kxob22_cell();
  const double full = cell.short_circuit_current(1.0).value();
  EXPECT_NEAR(cell.short_circuit_current(0.5).value(), 0.5 * full, 1e-5);
  EXPECT_NEAR(cell.short_circuit_current(0.25).value(), 0.25 * full, 1e-5);
}

TEST(PvCell, VocDropsSubLinearlyWithIrradiance) {
  const PvCell cell = make_ixys_kxob22_cell();
  const double voc_full = cell.open_circuit_voltage(1.0).value();
  const double voc_quarter = cell.open_circuit_voltage(0.25).value();
  // Logarithmic dependence: quartering the light costs far less than 4x Voc.
  EXPECT_GT(voc_quarter, 0.8 * voc_full);
  EXPECT_LT(voc_quarter, voc_full);
}

TEST(PvCell, RejectsNegativeVoltage) {
  const PvCell cell = make_ixys_kxob22_cell();
  EXPECT_THROW((void)cell.current(Volts(-0.1), 1.0), RangeError);
}

TEST(PvCell, RejectsOutOfRangeIrradiance) {
  const PvCell cell = make_ixys_kxob22_cell();
  EXPECT_THROW((void)cell.current(Volts(0.5), -0.1), RangeError);
  EXPECT_THROW((void)cell.current(Volts(0.5), 2.0), RangeError);
}

TEST(PvCellParams, ValidationCatchesBadParameters) {
  PvCellParams p;
  p.isc_full_sun = Amps(-1e-3);
  EXPECT_THROW(PvCell{p}, ModelError);
  p = PvCellParams{};
  p.ideality = 5.0;
  EXPECT_THROW(PvCell{p}, ModelError);
  p = PvCellParams{};
  p.series_junctions = 0;
  EXPECT_THROW(PvCell{p}, ModelError);
  p = PvCellParams{};
  p.shunt_resistance = Ohms(10.0);  // leaks more than Iph at Voc
  EXPECT_THROW(PvCell{p}, ModelError);
}

TEST(PvCell, SeriesResistanceReducesDeliveredPower) {
  PvCellParams lossy;
  lossy.series_resistance = Ohms(20.0);
  PvCellParams clean;
  clean.series_resistance = Ohms(0.0);
  const PvCell a(lossy), b(clean);
  // Compare in the high-current knee region where Rs matters.
  EXPECT_LT(a.power(Volts(1.1), 1.0).value(), b.power(Volts(1.1), 1.0).value());
}

TEST(PvCellTemperature, RoomTempFactoryMatchesDefault) {
  const PvCell a = make_ixys_kxob22_cell();
  const PvCell b = make_ixys_kxob22_cell_at(25.0);
  EXPECT_NEAR(a.open_circuit_voltage(1.0).value(),
              b.open_circuit_voltage(1.0).value(), 1e-9);
}

TEST(PvCellTemperature, HotPanelLosesVocAndPower) {
  const PvCell cold = make_ixys_kxob22_cell_at(25.0);
  const PvCell hot = make_ixys_kxob22_cell_at(65.0);
  EXPECT_LT(hot.open_circuit_voltage(1.0).value(),
            cold.open_circuit_voltage(1.0).value() - 0.15);
  // Power at a mid operating voltage also sags despite the tiny Isc gain.
  EXPECT_LT(hot.power(Volts(1.1), 1.0).value(),
            cold.power(Volts(1.1), 1.0).value());
}

TEST(PvCellTemperature, ColdPanelGainsVoc) {
  const PvCell cold = make_ixys_kxob22_cell_at(-10.0);
  const PvCell room = make_ixys_kxob22_cell_at(25.0);
  EXPECT_GT(cold.open_circuit_voltage(1.0).value(),
            room.open_circuit_voltage(1.0).value());
}

TEST(PvCellTemperature, RejectsSillyTemperatures) {
  EXPECT_THROW(make_ixys_kxob22_cell_at(200.0), ModelError);
  EXPECT_THROW(make_ixys_kxob22_cell_at(-60.0), ModelError);
}

/// Verbatim copy of PvCell's solves as they stood before they handed Brent
/// the bracket values they had already evaluated: the reference the exact
/// cell model must keep matching bit for bit.
struct ReferenceCell {
  PvCellParams p;
  double nvt = 0.0;
  double i0 = 0.0;

  explicit ReferenceCell(const PvCellParams& params) : p(params) {
    nvt = p.series_junctions * p.ideality * p.thermal_voltage.value();
    const double voc = p.voc_full_sun.value();
    const double iph = p.isc_full_sun.value();
    const double denom = std::expm1(voc / nvt);
    const double shunt_leak = voc / p.shunt_resistance.value();
    i0 = (iph - shunt_leak) / denom;
  }

  [[nodiscard]] double current(double v, double g) const {
    const double iph = p.isc_full_sun.value() * g;
    if (iph == 0.0) return 0.0;
    const double rs = p.series_resistance.value();
    const double rsh = p.shunt_resistance.value();
    auto f = [&](double i) {
      const double vj = v + i * rs;
      return iph - i0 * std::expm1(vj / nvt) - vj / rsh - i;
    };
    double lo = -iph;
    double hi = iph;
    if (f(hi) > 0.0) return iph;
    if (f(lo) < 0.0) return 0.0;
    const double i = numeric::brent_root(f, lo, hi, {.x_tol = 1e-12});
    return std::max(i, 0.0);
  }

  [[nodiscard]] double open_circuit_voltage(double g) const {
    if (g <= 0.0) return 0.0;
    const double vmax = p.voc_full_sun.value() * 1.2;
    const double iph = p.isc_full_sun.value() * g;
    const double rsh = p.shunt_resistance.value();
    auto f_oc = [&](double v) { return iph - i0 * std::expm1(v / nvt) - v / rsh; };
    if (f_oc(vmax) > 0.0) return vmax;
    return numeric::brent_root(f_oc, 0.0, vmax, {.x_tol = 1e-9});
  }
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

TEST(PvCell, SolvesMatchReferenceFormulasBitwise) {
  // The fleet's default cell and the KXOB22 across its temperature range,
  // each at several pv scales; voltages run past every open-circuit point.
  std::vector<PvCellParams> bases{PvCellParams{}};
  for (const double t : {-20.0, 25.0, 85.0}) {
    bases.push_back(make_ixys_kxob22_cell_at(t).params());
  }
  const double gs[] = {0.0, 1e-4, 0.003, 0.02, 0.05, 0.1, 0.2, 0.35,
                       0.5, 0.75, 1.0, 1.25, 1.5};
  for (const PvCellParams& base : bases) {
    for (const double scale : {0.5, 1.0, 1.4}) {
      PvCellParams params = base;
      params.isc_full_sun = params.isc_full_sun * scale;
      const PvCell cell(params);
      const ReferenceCell ref(params);
      for (const double g : gs) {
        EXPECT_TRUE(same_bits(cell.open_circuit_voltage(g).value(),
                              ref.open_circuit_voltage(g)))
            << "scale " << scale << " g " << g;
        for (int k = 0; k <= 90; ++k) {
          const double v = 0.02 * k;
          ASSERT_TRUE(same_bits(cell.current(Volts(v), g).value(), ref.current(v, g)))
              << "scale " << scale << " g " << g << " v " << v;
        }
      }
    }
  }
}

// Property sweep: power is non-negative and bounded by Voc * Isc everywhere.
class PowerBounds : public ::testing::TestWithParam<double> {};

TEST_P(PowerBounds, PowerWithinPhysicalEnvelope) {
  const PvCell cell = make_ixys_kxob22_cell();
  const double g = GetParam();
  const double bound = cell.open_circuit_voltage(g).value() *
                       cell.short_circuit_current(g).value();
  for (double v = 0.0; v <= 1.5; v += 0.1) {
    const double p = cell.power(Volts(v), g).value();
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, bound + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(IrradianceSweep, PowerBounds,
                         ::testing::Values(0.02, 0.05, 0.12, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace hemp
