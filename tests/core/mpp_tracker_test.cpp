#include "core/mpp_tracker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/interpolation.hpp"
#include "common/rng.hpp"
#include "common/solver_stats.hpp"
#include "regulator/switched_cap.hpp"
#include "sim/soc_system.hpp"

namespace hemp {
namespace {

using namespace hemp::literals;

TEST(EstimateInputPower, BalancesCapacitorDischarge) {
  // Draw 5 mW; node falls 1.0 -> 0.9 V on 47 uF in 10 ms.
  // Discharge power = C (V1^2 - V2^2) / (2 t) = 47e-6 * 0.19 / 0.02 = 0.4465 mW
  // => Pin = 5 - 0.4465 = 4.5535 mW.
  const Watts p_in =
      estimate_input_power(5.0_mW, 47.0_uF, 1.0_V, 0.9_V, 10.0_ms);
  EXPECT_NEAR(p_in.value(), 5e-3 - 47e-6 * (1.0 - 0.81) / (2 * 10e-3), 1e-9);
}

TEST(EstimateInputPower, FastFallMeansLittleInput) {
  // The faster the node falls under the same load, the less is coming in.
  const Watts slow = estimate_input_power(5.0_mW, 47.0_uF, 1.0_V, 0.9_V, 20.0_ms);
  const Watts fast = estimate_input_power(5.0_mW, 47.0_uF, 1.0_V, 0.9_V, 2.0_ms);
  EXPECT_GT(slow.value(), fast.value());
}

TEST(EstimateInputPower, ClampsAtZero) {
  // Node crashing faster than the load explains: estimate floors at zero.
  const Watts p = estimate_input_power(0.1_mW, 47.0_uF, 1.0_V, 0.5_V, 0.1_ms);
  EXPECT_DOUBLE_EQ(p.value(), 0.0);
}

TEST(EstimateInputPower, Validation) {
  EXPECT_THROW(estimate_input_power(1.0_mW, 47.0_uF, 0.9_V, 1.0_V, 1.0_ms),
               RangeError);
  EXPECT_THROW(estimate_input_power(1.0_mW, 47.0_uF, 1.0_V, 0.9_V, Seconds(0.0)),
               RangeError);
  EXPECT_THROW(estimate_input_power(1.0_mW, Farads(0.0), 1.0_V, 0.9_V, 1.0_ms),
               RangeError);
}

TEST(EstimateInputPower, RejectsNonFiniteLoad) {
  EXPECT_THROW(estimate_input_power(Watts(std::numeric_limits<double>::quiet_NaN()),
                                    47.0_uF, 1.0_V, 0.9_V, 1.0_ms),
               RangeError);
  EXPECT_THROW(estimate_input_power(Watts(std::numeric_limits<double>::infinity()),
                                    47.0_uF, 1.0_V, 0.9_V, 1.0_ms),
               RangeError);
}

TEST(MppLut, RoundTripsKnownIrradiances) {
  const PvCell cell = make_ixys_kxob22_cell();
  MppLut lut(cell, 0.95_V);
  for (double g : {0.1, 0.3, 0.6, 0.9}) {
    const Watts measured = cell.power(0.95_V, g);
    EXPECT_NEAR(lut.irradiance_for(measured), g, 0.02);
    EXPECT_NEAR(lut.mpp_voltage_for(measured).value(),
                find_mpp(cell, g).voltage.value(), 0.02);
    EXPECT_NEAR(lut.mpp_power_for(measured).value(),
                find_mpp(cell, g).power.value(), 0.3e-3);
  }
}

TEST(MppLut, ClampsOutOfRangePower) {
  const PvCell cell = make_ixys_kxob22_cell();
  MppLut lut(cell, 0.95_V);
  EXPECT_NO_THROW((void)lut.mpp_voltage_for(Watts(1.0)));
  EXPECT_NO_THROW((void)lut.mpp_voltage_for(Watts(0.0)));
}

TEST(MppLut, MppVoltageMonotoneInPower) {
  const PvCell cell = make_ixys_kxob22_cell();
  MppLut lut(cell, 0.95_V);
  double prev = 0.0;
  for (double p = 0.5e-3; p <= 14e-3; p += 0.5e-3) {
    const double v = lut.mpp_voltage_for(Watts(p)).value();
    EXPECT_GE(v, prev - 1e-9);
    prev = v;
  }
}

// The table as an eager build makes it: every kept knot's find_mpp solved up
// front and fed into PiecewiseLinear.  The first-touch table must return
// these bits for every query.
struct EagerLut {
  std::vector<double> p;
  PiecewiseLinear vmpp;
  PiecewiseLinear pmpp;
};

EagerLut eager_lut(const PvCell& cell, Volts measure_voltage) {
  std::vector<double> p, vmpp, pmpp;
  double last_p = -1.0;
  for (int i = 0; i < kMppLutSamples; ++i) {
    const double g =
        kMppLutGMin + (kMppLutGMax - kMppLutGMin) * i / (kMppLutSamples - 1);
    const double p_meas = cell.power(measure_voltage, g).value();
    if (p_meas <= last_p) continue;
    const MaxPowerPoint point = find_mpp(cell, g);
    p.push_back(p_meas);
    vmpp.push_back(point.voltage.value());
    pmpp.push_back(point.power.value());
    last_p = p_meas;
  }
  return {p, PiecewiseLinear(p, vmpp), PiecewiseLinear(p, pmpp)};
}

// ~1000 powers: below the axis, above it, exactly on every knot, and at
// fixed and random fractions between every pair of adjacent knots.
std::vector<double> lut_queries(const std::vector<double>& axis) {
  std::vector<double> q = {-1.0, 0.0, 0.5 * axis.front(),
                           std::nextafter(axis.front(), 0.0), 2.0 * axis.back(),
                           std::nextafter(axis.back(), 1.0)};
  Rng rng(19);
  for (std::size_t k = 0; k < axis.size(); ++k) {
    q.push_back(axis[k]);
    if (k + 1 == axis.size()) continue;
    const double lo = axis[k];
    const double hi = axis[k + 1];
    q.push_back(std::nextafter(lo, hi));
    q.push_back(std::nextafter(hi, lo));
    for (const double f : {0.25, 0.5, 0.75}) q.push_back(lo + f * (hi - lo));
    for (int j = 0; j < 16; ++j) q.push_back(rng.uniform(lo, hi));
  }
  return q;
}

void expect_same_bits(double got, double want, double p, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
      << what << " at p = " << p << ": " << got << " vs " << want;
}

TEST(MppLut, FirstTouchMatchesEagerTableBitForBit) {
  const PvCell cell = make_ixys_kxob22_cell();
  const EagerLut eager = eager_lut(cell, 0.95_V);
  std::vector<double> forward = lut_queries(eager.p);
  std::sort(forward.begin(), forward.end());
  std::vector<double> reverse(forward.rbegin(), forward.rend());
  std::vector<double> shuffled = forward;
  Rng rng(2018);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  }
  ASSERT_GE(forward.size(), 1000U);
  for (const std::vector<double>* order : {&forward, &reverse, &shuffled}) {
    MppLut lut(cell, 0.95_V);
    for (std::size_t i = 0; i < order->size(); ++i) {
      const double p = (*order)[i];
      // Alternate which table a query touches first.
      double v = 0.0;
      double pm = 0.0;
      if (i % 2 == 0) {
        v = lut.mpp_voltage_for(Watts(p)).value();
        pm = lut.mpp_power_for(Watts(p)).value();
      } else {
        pm = lut.mpp_power_for(Watts(p)).value();
        v = lut.mpp_voltage_for(Watts(p)).value();
      }
      expect_same_bits(v, eager.vmpp(p), p, "vmpp");
      expect_same_bits(pm, eager.pmpp(p), p, "pmpp");
    }
  }
}

TEST(MppLut, SolvesEachKnotOnceOnFirstTouch) {
  const PvCell cell = make_ixys_kxob22_cell();
  const EagerLut eager = eager_lut(cell, 0.95_V);
  const std::vector<double>& axis = eager.p;
  const auto solves_since = [](const solver_stats::Snapshot& s) {
    return solver_stats::delta_since(s).mpp_solves;
  };

  const auto start = solver_stats::snapshot();
  MppLut lut(cell, 0.95_V);
  EXPECT_EQ(solves_since(start), 0U) << "construction solves no knot";

  // An interior read solves its segment's two knots, once.
  const double mid = 0.5 * (axis[10] + axis[11]);
  auto before = solver_stats::snapshot();
  (void)lut.mpp_voltage_for(Watts(mid));
  EXPECT_EQ(solves_since(before), 2U);
  before = solver_stats::snapshot();
  (void)lut.mpp_voltage_for(Watts(mid));
  (void)lut.mpp_power_for(Watts(mid));
  EXPECT_EQ(solves_since(before), 0U) << "repeated reads hit the memo";

  // The neighbouring segment shares knot 11: one new solve.
  before = solver_stats::snapshot();
  (void)lut.mpp_power_for(Watts(0.5 * (axis[11] + axis[12])));
  EXPECT_EQ(solves_since(before), 1U);

  // Clamped reads solve only the end knot.
  before = solver_stats::snapshot();
  (void)lut.mpp_voltage_for(Watts(0.0));
  EXPECT_EQ(solves_since(before), 1U);
  before = solver_stats::snapshot();
  (void)lut.mpp_power_for(Watts(1.0));
  EXPECT_EQ(solves_since(before), 1U);

  // Every read after that solves at most its two knots, and the table as a
  // whole never solves a knot twice.
  for (const double p : lut_queries(axis)) {
    before = solver_stats::snapshot();
    (void)lut.mpp_voltage_for(Watts(p));
    (void)lut.mpp_power_for(Watts(p));
    EXPECT_LE(solves_since(before), 2U);
  }
  EXPECT_EQ(solves_since(start), axis.size()) << "every knot solved exactly once";
}

TEST(MppLut, RejectsNanPowerWithoutSolving) {
  const PvCell cell = make_ixys_kxob22_cell();
  MppLut lut(cell, 0.95_V);
  const Watts nan(std::numeric_limits<double>::quiet_NaN());
  const auto before = solver_stats::snapshot();
  EXPECT_THROW((void)lut.mpp_voltage_for(nan), ModelError);
  EXPECT_THROW((void)lut.mpp_power_for(nan), ModelError);
  EXPECT_THROW((void)lut.irradiance_for(nan), ModelError);
  EXPECT_EQ(solver_stats::delta_since(before).mpp_solves, 0U);
  // The table still answers finite reads afterwards.
  EXPECT_GT(lut.mpp_voltage_for(Watts(4e-3)).value(), 0.0);
}

struct TrackerFixture {
  PvCell cell = make_ixys_kxob22_cell();
  SwitchedCapRegulator reg;
  Processor proc = Processor::make_test_chip();
  SystemModel model{cell, reg, proc};

  SocSystem make_soc() {
    SocConfig cfg;
    return SocSystem(cfg, std::make_unique<SwitchedCapRegulator>(),
                     Processor::make_test_chip());
  }
};

TEST(MppTrackingController, ConvergesToFullSunMpp) {
  TrackerFixture f;
  MppTrackerParams params;
  MppTrackingController ctrl(f.model, params);
  SocSystem soc = f.make_soc();
  const SimResult r = soc.run(IrradianceTrace::constant(1.0), ctrl, 120.0_ms);
  const MaxPowerPoint mpp = find_mpp(f.cell, 1.0);
  // Solar node should hover near the MPP voltage.
  EXPECT_NEAR(r.final_state.v_solar.value(), mpp.voltage.value(), 0.08);
  // And the harvest rate should be close to the MPP power.
  const double p_end = r.waveform.value_at("p_harvest_w", 119.0_ms);
  EXPECT_GT(p_end, 0.85 * mpp.power.value());
}

TEST(MppTrackingController, RetargetsAfterLightStep) {
  TrackerFixture f;
  MppTrackerParams params;
  MppTrackingController ctrl(f.model, params);
  SocSystem soc = f.make_soc();
  const SimResult r =
      soc.run(IrradianceTrace::step(1.0, 0.3, 80.0_ms), ctrl, 200.0_ms);
  EXPECT_GE(ctrl.retarget_count(), 1);
  ASSERT_TRUE(ctrl.last_power_estimate().has_value());
  // The Eq. 7 estimate should land near the real post-step input power.
  const double p_true = f.cell.power(Volts(0.95), 0.3).value();
  EXPECT_NEAR(ctrl.last_power_estimate()->value(), p_true, 0.5 * p_true);
  // Final target should approximate the new MPP voltage.
  const MaxPowerPoint mpp = find_mpp(f.cell, 0.3);
  EXPECT_NEAR(ctrl.target_voltage().value(), mpp.voltage.value(), 0.08);
}

TEST(MppTrackingController, HarvestsMoreThanFixedConservativePoint) {
  TrackerFixture f;
  MppTrackerParams params;
  MppTrackingController tracking(f.model, params);
  SocSystem soc1 = f.make_soc();
  const SimResult tracked =
      soc1.run(IrradianceTrace::constant(1.0), tracking, 100.0_ms);

  FixedPointController fixed(PowerPath::kRegulated, 0.35_V, 150.0_MHz);
  SocSystem soc2 = f.make_soc();
  const SimResult conservative =
      soc2.run(IrradianceTrace::constant(1.0), fixed, 100.0_ms);

  EXPECT_GT(tracked.totals.cycles, 2.0 * conservative.totals.cycles);
  EXPECT_GT(tracked.totals.harvested.value(),
            1.5 * conservative.totals.harvested.value());
}

TEST(MppTrackerParams, Validation) {
  TrackerFixture f;
  MppTrackerParams p;
  p.v_high = 0.8_V;  // below v_low
  p.v_low = 0.9_V;
  EXPECT_THROW(MppTrackingController(f.model, p), ModelError);
  p = MppTrackerParams{};
  p.dvfs_steps = 2;
  EXPECT_THROW(MppTrackingController(f.model, p), ModelError);
  p = MppTrackerParams{};
  p.control_period = Seconds(0.0);
  EXPECT_THROW(MppTrackingController(f.model, p), ModelError);
}

}  // namespace
}  // namespace hemp
