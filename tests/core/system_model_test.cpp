#include "core/system_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "regulator/bypass.hpp"
#include "regulator/ldo.hpp"
#include "regulator/switched_cap.hpp"

namespace hemp {
namespace {

using namespace hemp::literals;

struct Fixture {
  PvCell cell = make_ixys_kxob22_cell();
  SwitchedCapRegulator sc;
  Processor proc = Processor::make_test_chip();
  SystemModel model{cell, sc, proc};
};

TEST(SystemModel, MppMatchesHarvesterSolver) {
  Fixture f;
  const MaxPowerPoint a = f.model.mpp(1.0);
  const MaxPowerPoint b = find_mpp(f.cell, 1.0);
  EXPECT_NEAR(a.voltage.value(), b.voltage.value(), 1e-9);
  EXPECT_NEAR(a.power.value(), b.power.value(), 1e-12);
}

TEST(SystemModel, DeliveredPowerIsSelfConsistent) {
  Fixture f;
  const Volts vdd = 0.5_V;
  const Watts pout = f.model.delivered_power(vdd, 1.0);
  ASSERT_GT(pout.value(), 0.0);
  const MaxPowerPoint mpp = f.model.mpp(1.0);
  if (pout < f.sc.rated_load()) {
    const double eta = f.sc.efficiency(mpp.voltage, vdd, pout);
    EXPECT_NEAR(pout.value(), eta * mpp.power.value(), 1e-9);
  }
}

TEST(SystemModel, DeliveredPowerFromResolvedMppIsBitIdentical) {
  // The (vdd, MPP) form is the (vdd, g) form with the memo lookup hoisted
  // out, so the optimizers can resolve mpp(g) once per solve.  The grid
  // covers dark (zero MPP power), the regulator envelope's edges and the
  // rated-load cap.
  Fixture f;
  for (int gi = 0; gi <= 25; ++gi) {
    const double g = 0.05 * gi;
    const MaxPowerPoint point = f.model.mpp(g);
    for (int vi = 0; vi <= 60; ++vi) {
      const Volts vdd(0.2 + 0.01 * vi);
      SCOPED_TRACE(testing::Message() << "g=" << g << " vdd=" << vdd.value());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(f.model.delivered_power(vdd, g).value()),
                std::bit_cast<std::uint64_t>(
                    f.model.delivered_power(vdd, point).value()));
    }
  }
}

TEST(SystemModel, DeliveredPowerCapsAtRatedLoad) {
  Fixture f;
  // At the SC sweet spot under full sun the uncapped solution would exceed
  // the rating; the model must clamp.
  const Watts pout = f.model.delivered_power(0.55_V, 1.0);
  EXPECT_LE(pout.value(), f.sc.rated_load().value() + 1e-12);
}

TEST(SystemModel, DeliveredPowerZeroOutsideEnvelope) {
  Fixture f;
  // 0.95 V from a ~1.19 V MPP input: above every SC ratio envelope.
  EXPECT_DOUBLE_EQ(f.model.delivered_power(1.1_V, 1.0).value(), 0.0);
  EXPECT_DOUBLE_EQ(f.model.delivered_power(0.5_V, 0.0).value(), 0.0);
}

TEST(SystemModel, DeliveredPowerGrowsWithIrradiance) {
  Fixture f;
  double prev = 0.0;
  for (double g : {0.1, 0.25, 0.5, 0.75, 1.0}) {
    const double p = f.model.delivered_power(0.5_V, g).value();
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(SystemModel, UnregulatedPowerIsRawCellOutput) {
  Fixture f;
  EXPECT_NEAR(f.model.unregulated_power(0.5_V, 1.0).value(),
              f.cell.power(0.5_V, 1.0).value(), 1e-15);
}

TEST(SystemModel, EfficiencyAtMatchesDeliveredPower) {
  Fixture f;
  const Volts vdd = 0.45_V;
  const double eta = f.model.efficiency_at(vdd, 1.0);
  const Watts pout = f.model.delivered_power(vdd, 1.0);
  const MaxPowerPoint mpp = f.model.mpp(1.0);
  EXPECT_NEAR(eta, f.sc.efficiency(mpp.voltage, vdd, pout), 1e-12);
}

TEST(SystemModel, MppCacheQuantizesIrradiance) {
  // Queries inside the same quantum return the identical cached point: the
  // solve runs at the quantized representative, so the result is a pure
  // function of the key, not of which query arrived first.
  Fixture f;
  const double g = 0.5;
  const double g_jitter = g + 0.4 * SystemModel::kMppCacheQuantum;
  const MaxPowerPoint a = f.model.mpp(g);
  const MaxPowerPoint b = f.model.mpp(g_jitter);
  EXPECT_EQ(a.voltage.value(), b.voltage.value());
  EXPECT_EQ(a.power.value(), b.power.value());
  // And the quantization error is negligible against the exact solve.
  const MaxPowerPoint exact = find_mpp(f.cell, g_jitter);
  EXPECT_NEAR(b.power.value(), exact.power.value(),
              exact.power.value() * 1e-5);
}

TEST(SystemModel, MppCacheIsOrderIndependent) {
  // Same queries, opposite order, two fresh models: identical answers.
  Fixture f1, f2;
  const double lo = 0.3, hi = 0.3 + 0.4 * SystemModel::kMppCacheQuantum;
  const MaxPowerPoint a1 = f1.model.mpp(lo);
  const MaxPowerPoint a2 = f1.model.mpp(hi);
  const MaxPowerPoint b2 = f2.model.mpp(hi);
  const MaxPowerPoint b1 = f2.model.mpp(lo);
  EXPECT_EQ(a1.power.value(), b1.power.value());
  EXPECT_EQ(a2.power.value(), b2.power.value());
}

TEST(SystemModel, MppCacheKeepsWorkingPastCapacity) {
  // Filling the cache beyond capacity flushes it but must not disable it:
  // a repeated query still returns a consistent (re-solved) point.
  Fixture f;
  const MaxPowerPoint before = f.model.mpp(0.77);
  for (std::size_t i = 0; i < SystemModel::kMppCacheCapacity + 10; ++i) {
    (void)f.model.mpp(0.01 + 1e-5 * static_cast<double>(i));
  }
  const MaxPowerPoint after = f.model.mpp(0.77);
  EXPECT_EQ(before.voltage.value(), after.voltage.value());
  EXPECT_EQ(before.power.value(), after.power.value());
}

TEST(SystemModel, LdoDeliveredPowerIsVoltageRatioBound) {
  PvCell cell = make_ixys_kxob22_cell();
  Ldo ldo;
  Processor proc = Processor::make_test_chip();
  SystemModel model(cell, ldo, proc);
  const MaxPowerPoint mpp = model.mpp(1.0);
  const Watts pout = model.delivered_power(0.5_V, 1.0);
  EXPECT_LT(pout.value(), mpp.power.value() * 0.5 / mpp.voltage.value() + 1e-6);
}

}  // namespace
}  // namespace hemp
