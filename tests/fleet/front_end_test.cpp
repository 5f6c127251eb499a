#include "fleet/front_end.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "common/error.hpp"
#include "processor/corners.hpp"

namespace hemp {
namespace {

FleetScenario small_scenario() {
  FleetScenario s;
  s.nodes = 5;
  s.seed = 11;
  s.trace_kind = TraceKind::kClouds;
  return s;
}

SimTotals some_totals() {
  SimTotals t;
  t.cycles = 3e6;
  t.brownouts = 2;
  t.timing_faults = 1;
  t.harvested = Joules(5e-4);
  t.delivered_to_processor = Joules(3e-4);
  t.halted_time = Seconds(0.01);
  return t;
}

TEST(FleetFrontEnd, HitRateIsOneWithNoAdjudicatedJobs) {
  EXPECT_EQ(PolicyJobStats{}.hit_rate(), 1.0);
  // Submitted but neither completed nor missed yet: nothing adjudicated.
  EXPECT_EQ((PolicyJobStats{.submitted = 4}).hit_rate(), 1.0);
  EXPECT_EQ((PolicyJobStats{.submitted = 4, .completed = 3, .missed = 1}).hit_rate(),
            0.75);
  EXPECT_EQ((PolicyJobStats{.submitted = 2, .missed = 2}).hit_rate(), 0.0);
}

TEST(FleetFrontEnd, EnergyPerJobIsZeroWithNoCompletions) {
  const NodeSample s{.index = 3};
  const NodeResult none =
      node_result(s, some_totals(), {.submitted = 5, .missed = 5}, 0.0);
  EXPECT_EQ(none.energy_per_job.value(), 0.0);
  EXPECT_EQ(none.deadline_hit_rate, 0.0);

  const NodeResult two = node_result(
      s, some_totals(), {.submitted = 5, .completed = 2, .missed = 1}, 0.125);
  EXPECT_EQ(two.energy_per_job.value(), 3e-4 / 2);
  EXPECT_EQ(two.deadline_hit_rate, 2.0 / 3.0);
  EXPECT_EQ(two.sample.index, 3);
  EXPECT_EQ(two.cycles, 3e6);
  EXPECT_EQ(two.brownouts, 2);
  EXPECT_EQ(two.timing_faults, 1);
  EXPECT_EQ(two.jobs_submitted, 5);
  EXPECT_EQ(two.mppt_error, 0.125);
  EXPECT_EQ(two.harvested.value(), 5e-4);
  EXPECT_EQ(two.delivered.value(), 3e-4);
  EXPECT_EQ(two.halted.value(), 0.01);
}

TEST(FleetFrontEnd, MpptBucketRoundsToHundredthsFromFivePercent) {
  EXPECT_FALSE(mppt_bucket(0.0));
  EXPECT_FALSE(mppt_bucket(0.0499));
  const auto low = mppt_bucket(0.05);
  ASSERT_TRUE(low);
  EXPECT_EQ(low->k, 5.0);
  EXPECT_EQ(low->g, 0.05);
  const auto mid = mppt_bucket(0.4349);
  ASSERT_TRUE(mid);
  EXPECT_EQ(mid->k, 43.0);
  EXPECT_EQ(mid->g, 0.43);
}

TEST(FleetFrontEnd, DrawIsAPureFunctionOfSeedAndIndex) {
  const FleetFrontEnd front(small_scenario());
  const NodeDraw a = front.draw(2);
  const NodeDraw b = front.draw(2);
  const NodeSample alone = front.sample(2);
  EXPECT_EQ(a.sample.pv_scale, alone.pv_scale);
  EXPECT_EQ(a.sample.solar_capacitance.value(), alone.solar_capacitance.value());
  EXPECT_EQ(a.sample.job_phase.value(), b.sample.job_phase.value());
  EXPECT_EQ(a.pv.isc_full_sun.value(),
            scaled_pv_params(a.sample.pv_scale).isc_full_sun.value());
  EXPECT_EQ(a.processor.max_frequency(Volts(0.6)).value(),
            make_test_chip_at(a.sample.conditions).max_frequency(Volts(0.6)).value());
  EXPECT_EQ(a.workload.phase.value(), a.sample.job_phase.value());
  EXPECT_EQ(a.workload.job_cycles, small_scenario().job_cycles);
  // A per-node sky continues the node's stream: same node, same sky.
  EXPECT_FALSE(front.shared_sky());
  ASSERT_TRUE(a.sky && b.sky);
  for (const double t : {0.05, 0.1, 0.2}) {
    EXPECT_EQ(a.sky->at(Seconds(t)), b.sky->at(Seconds(t)));
  }
}

TEST(FleetFrontEnd, SharingFleetsDrawNoOwnSky) {
  FleetScenario s = small_scenario();
  s.shared_trace = true;
  const FleetFrontEnd front(s);
  EXPECT_FALSE(front.draw(0).sky);
  const std::optional<IrradianceTrace> sky = front.shared_sky();
  ASSERT_TRUE(sky);
  EXPECT_EQ(sky->at(Seconds(0.1)), FleetFrontEnd(s).shared_sky()->at(Seconds(0.1)));
}

TEST(FleetFrontEnd, LegacyMixPicksPolicyByMode) {
  const FleetFrontEnd front(small_scenario());
  ASSERT_EQ(front.policies().size(), 2u);
  EXPECT_EQ(front.policy({.min_energy = false}).name(), "mpp_track");
  EXPECT_EQ(front.policy({.min_energy = true}).name(), "mep_hold");
}

TEST(FleetFrontEnd, ForcedPolicyIgnoresSampledMode) {
  FleetScenario s = small_scenario();
  s.policy = "greedy_mpp";
  const FleetFrontEnd front(s);
  ASSERT_EQ(front.policies().size(), 1u);
  EXPECT_EQ(front.policy({.min_energy = true}).name(), "greedy_mpp");
  EXPECT_EQ(front.draw(1).policy->name(), "greedy_mpp");
}

TEST(FleetFrontEnd, UnknownPolicyThrows) {
  FleetScenario s = small_scenario();
  s.policy = "no_such_policy";
  EXPECT_THROW((void)FleetFrontEnd{s}, ModelError);
}

}  // namespace
}  // namespace hemp
