#include "storage/comparator.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace hemp {
namespace {

using namespace hemp::literals;

TEST(Comparator, FirstSampleInitializesWithoutEvent) {
  Comparator c(1.0_V);
  EXPECT_FALSE(c.update(1.2_V, 0.0_s).has_value());
  EXPECT_TRUE(c.output());
}

TEST(Comparator, FallingEdgeFiresBelowHysteresisBand) {
  Comparator c(1.0_V, 0.01_V);
  c.reset(1.2_V);
  EXPECT_FALSE(c.update(1.0_V, 1.0_ms).has_value());    // inside band
  EXPECT_FALSE(c.update(0.996_V, 2.0_ms).has_value());  // still inside
  const auto e = c.update(0.99_V, 3.0_ms);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->edge, Edge::kFalling);
  EXPECT_DOUBLE_EQ(e->time.value(), 3e-3);
  EXPECT_DOUBLE_EQ(e->threshold.value(), 1.0);
}

TEST(Comparator, RisingEdgeFiresAboveHysteresisBand) {
  Comparator c(1.0_V, 0.01_V);
  c.reset(0.8_V);
  EXPECT_FALSE(c.update(1.004_V, 1.0_ms).has_value());
  const auto e = c.update(1.01_V, 2.0_ms);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->edge, Edge::kRising);
}

TEST(Comparator, HysteresisSuppressesChatter) {
  Comparator c(1.0_V, 0.02_V);
  c.reset(1.2_V);
  ASSERT_TRUE(c.update(0.98_V, 1.0_ms).has_value());  // falling
  // Oscillate inside the band: no further events.
  EXPECT_FALSE(c.update(1.005_V, 2.0_ms).has_value());
  EXPECT_FALSE(c.update(0.995_V, 3.0_ms).has_value());
  EXPECT_FALSE(c.update(1.009_V, 4.0_ms).has_value());
  // Clear excursion above the band: rising edge.
  EXPECT_TRUE(c.update(1.02_V, 5.0_ms).has_value());
}

TEST(Comparator, RejectsTimeTravel) {
  Comparator c(1.0_V);
  c.update(1.2_V, 5.0_ms);
  c.update(1.2_V, 6.0_ms);
  EXPECT_THROW(c.update(1.2_V, 1.0_ms), RangeError);
}

TEST(Comparator, Validation) {
  EXPECT_THROW(Comparator(Volts(0.0)), ModelError);
  EXPECT_THROW(Comparator(1.0_V, Volts(-0.01)), ModelError);
}

TEST(ComparatorBank, RequiresDescendingThresholds) {
  EXPECT_NO_THROW(ComparatorBank{kComparatorThresholds});
  EXPECT_THROW(ComparatorBank(std::array{0.9_V, 1.0_V}), ModelError);
  EXPECT_THROW(ComparatorBank(std::array{1.0_V, 1.0_V}), ModelError);
  EXPECT_THROW(ComparatorBank({}), ModelError);
}

TEST(ComparatorBank, ReportsAllCrossingsInOneSample) {
  ComparatorBank bank(kComparatorThresholds);  // 1.1, 1.0 and 0.9 V
  bank.reset(1.2_V);
  // Plunge below all three at once.
  const auto events = bank.update(0.5_V, 1.0_ms);
  EXPECT_EQ(events.size(), 3u);
  for (const auto& e : events) EXPECT_EQ(e.edge, Edge::kFalling);
}

TEST(ComparatorBank, SequentialCrossingsFireIndividually) {
  ComparatorBank bank(kComparatorThresholds);  // 1.1, 1.0 and 0.9 V
  bank.reset(1.2_V);
  EXPECT_EQ(bank.update(1.05_V, 1.0_ms).size(), 1u);
  EXPECT_EQ(bank.update(0.95_V, 2.0_ms).size(), 1u);
  EXPECT_EQ(bank.update(0.85_V, 3.0_ms).size(), 1u);
  EXPECT_EQ(bank.update(0.84_V, 4.0_ms).size(), 0u);
}

TEST(Comparator, NextToggleFollowsTheLatch) {
  Comparator c(1.0_V, 0.01_V);
  c.reset(1.2_V);
  EXPECT_EQ(c.next_toggle().value(), 1.0 - 0.005);  // high: falls below
  ASSERT_TRUE(c.update(0.99_V, 1.0_ms).has_value());
  EXPECT_EQ(c.next_toggle().value(), 1.0 + 0.005);  // low: rises above
  // The default band is the 5 mV one the event engines' watch allowance
  // (flat::kCompHalfHyst) halves.
  Comparator d(1.0_V);
  d.reset(0.8_V);
  EXPECT_EQ(d.next_toggle().value(), 1.0 + 0.0025);
}

TEST(ThresholdTimer, NextTogglesOfTheWindow) {
  ThresholdTimer timer(1.0_V, 0.9_V);
  timer.reset(0.95_V);  // between the edges: high comparator low, low high
  EXPECT_EQ(timer.high_next_toggle().value(), 1.0 + 0.0025);
  EXPECT_EQ(timer.low_next_toggle().value(), 0.9 - 0.0025);
}

TEST(ThresholdTimer, MeasuresFallTime) {
  ThresholdTimer timer(1.0_V, 0.9_V);
  timer.reset(1.2_V);
  EXPECT_FALSE(timer.update(1.05_V, 1.0_ms).has_value());
  EXPECT_FALSE(timer.update(0.98_V, 2.0_ms).has_value());  // arms here
  EXPECT_TRUE(timer.armed());
  const auto t = timer.update(0.88_V, 5.0_ms);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(t->value(), 3e-3, 1e-9);
  EXPECT_FALSE(timer.armed());
}

TEST(ThresholdTimer, RecoveryAboveHighDisarms) {
  ThresholdTimer timer(1.0_V, 0.9_V);
  timer.reset(1.2_V);
  timer.update(0.98_V, 1.0_ms);  // armed
  timer.update(1.05_V, 2.0_ms);  // recovered: disarm
  EXPECT_FALSE(timer.armed());
  // A later fall through v_low without re-arming gives no measurement...
  EXPECT_FALSE(timer.update(0.95_V, 3.0_ms).has_value());
  // Wait: falling from above v_high re-arms on the way down.
  // The 1.05 -> 0.95 transition crossed v_high, so the timer re-armed at 3 ms.
  const auto t = timer.update(0.88_V, 4.0_ms);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(t->value(), 1e-3, 1e-9);
}

TEST(ThresholdTimer, NoMeasurementWithoutArming) {
  ThresholdTimer timer(1.0_V, 0.9_V);
  timer.reset(0.95_V);  // starts between thresholds: not armed
  EXPECT_FALSE(timer.update(0.88_V, 1.0_ms).has_value());
}

TEST(ThresholdTimer, RepeatedMeasurements) {
  ThresholdTimer timer(1.0_V, 0.9_V);
  timer.reset(1.2_V);
  timer.update(0.98_V, 1.0_ms);
  ASSERT_TRUE(timer.update(0.88_V, 3.0_ms).has_value());
  // Recharge and fall again.
  timer.update(1.2_V, 10.0_ms);
  timer.update(0.98_V, 11.0_ms);
  const auto t = timer.update(0.88_V, 12.0_ms);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(t->value(), 1e-3, 1e-9);
}

TEST(ThresholdTimer, Validation) {
  EXPECT_THROW(ThresholdTimer(0.9_V, 1.0_V), ModelError);
}

}  // namespace
}  // namespace hemp
