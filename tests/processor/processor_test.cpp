#include "processor/processor.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace hemp {
namespace {

using namespace hemp::literals;

Processor chip() { return Processor::make_test_chip(); }

TEST(Processor, MaxPowerUsesMaxFrequency) {
  const Processor p = chip();
  const Volts v = 0.55_V;
  const Hertz f = p.max_frequency(v);
  EXPECT_NEAR(p.max_power(v).value(),
              p.power_model().total_power(v, f).value(), 1e-15);
}

TEST(Processor, CheckRejectsOverclock) {
  const Processor p = chip();
  const Hertz f_max = p.max_frequency(0.5_V);
  EXPECT_THROW(p.check({0.5_V, Hertz(f_max.value() * 1.5)}), RangeError);
  EXPECT_NO_THROW(p.check({0.5_V, f_max}));
  EXPECT_NO_THROW(p.check({0.5_V, Hertz(f_max.value() * 0.5)}));
}

TEST(Processor, CheckRejectsVoltageOutsideEnvelope) {
  const Processor p = chip();
  EXPECT_THROW(p.check({0.1_V, 1.0_MHz}), RangeError);
  EXPECT_THROW(p.check({1.5_V, 1.0_MHz}), RangeError);
}

TEST(Processor, ThrottlingReducesPower) {
  const Processor p = chip();
  const Hertz f_max = p.max_frequency(0.6_V);
  const Watts full = p.power({0.6_V, f_max});
  const Watts half = p.power({0.6_V, Hertz(f_max.value() / 2)});
  EXPECT_LT(half.value(), full.value());
  // But not halved: leakage does not throttle.
  EXPECT_GT(half.value(), full.value() / 2);
}

TEST(Processor, CurrentIsPowerOverVoltage) {
  const Processor p = chip();
  const OperatingPoint op{0.5_V, 100.0_MHz};
  EXPECT_NEAR(p.current(op).value(), p.power(op).value() / 0.5, 1e-12);
}

TEST(Processor, EnergyPerCycleAtMaxSpeedMatchesModel) {
  const Processor p = chip();
  const Volts v = 0.45_V;
  EXPECT_NEAR(p.energy_per_cycle(v).value(),
              p.power_model().energy_per_cycle(v, p.max_frequency(v)).value(),
              1e-21);
}

TEST(Processor, ThrottledEnergyPerCycleIsHigher) {
  // Slower clock at the same voltage accrues more leakage per cycle.
  const Processor p = chip();
  const Volts v = 0.45_V;
  const Hertz f_max = p.max_frequency(v);
  const Joules at_max = p.energy_per_cycle({v, f_max});
  const Joules throttled = p.energy_per_cycle({v, Hertz(f_max.value() / 4)});
  EXPECT_GT(throttled.value(), at_max.value());
}

TEST(Processor, TimeAndEnergyForCycles) {
  const Processor p = chip();
  const OperatingPoint op{0.5_V, 100.0_MHz};
  EXPECT_NEAR(p.time_for_cycles(1e6, op).value(), 0.01, 1e-12);
  EXPECT_NEAR(p.energy_for_cycles(1e6, op).value(),
              p.energy_per_cycle(op).value() * 1e6, 1e-18);
}

TEST(Processor, TimeForCyclesRejectsZeroClock) {
  const Processor p = chip();
  EXPECT_THROW((void)p.time_for_cycles(100.0, {0.5_V, Hertz(0.0)}), RangeError);
}

TEST(Processor, PaperFrameTimeAtHalfVolt) {
  // Sec. VII: 64x64 frame ~ 15 ms at 0.5 V -> ~9.7 M cycles at ~644 MHz.
  const Processor p = chip();
  const Hertz f = p.max_frequency(0.5_V);
  const Seconds t = p.time_for_cycles(9.65e6, {0.5_V, f});
  EXPECT_NEAR(t.value(), 15e-3, 1e-3);
}

DvfsLadder envelope_ladder(const Processor& p, int steps) {
  return DvfsLadder::spanning(p.min_voltage(), p.max_voltage(), steps,
                              [&p](Volts v) { return p.max_frequency(v); });
}

TEST(DvfsLadder, SpansProcessorEnvelope) {
  const Processor p = chip();
  const DvfsLadder ladder = envelope_ladder(p, 10);
  EXPECT_EQ(ladder.size(), 10u);
  EXPECT_DOUBLE_EQ(ladder.at(0).vdd.value(), p.min_voltage().value());
  EXPECT_DOUBLE_EQ(ladder.at(9).vdd.value(), p.max_voltage().value());
}

TEST(DvfsLadder, LevelsCarryMaxFrequency) {
  const Processor p = chip();
  const DvfsLadder ladder = envelope_ladder(p, 8);
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    EXPECT_NEAR(ladder.at(i).frequency.value(),
                p.max_frequency(ladder.at(i).vdd).value(), 1.0);
  }
}

TEST(DvfsLadder, ExplicitLevelsMustBeSorted) {
  EXPECT_THROW(DvfsLadder({{0.5_V, 100.0_MHz}, {0.4_V, 50.0_MHz}}), ModelError);
  EXPECT_THROW(DvfsLadder(std::vector<OperatingPoint>{{0.5_V, 100.0_MHz}}),
               ModelError);
}

}  // namespace
}  // namespace hemp
