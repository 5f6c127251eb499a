#include "fleet/fleet_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/audit.hpp"
#include "common/error.hpp"
#include "policy/registry.hpp"

namespace hemp {
namespace {

/// Small, fast scenario: a fleet test must not simulate minutes of transient.
FleetScenario quick_scenario() {
  FleetScenario s;
  s.name = "test";
  s.nodes = 6;
  s.seed = 42;
  s.day_length = Seconds(0.02);
  s.time_step = Seconds(10e-6);
  s.waveform_interval = Seconds(200e-6);
  s.trace_kind = TraceKind::kConstant;
  s.constant_g = 0.9;
  s.job_cycles = 2e5;
  s.job_period = Seconds(5e-3);
  s.job_deadline = Seconds(2e-3);
  return s;
}

TEST(FleetSimulator, SameSeedBitIdenticalReport) {
  const FleetSimulator sim(quick_scenario());
  const FleetReport a = sim.run();
  const FleetReport b = sim.run();
  EXPECT_EQ(a.summary_hash, b.summary_hash);
  ASSERT_EQ(a.node_results.size(), b.node_results.size());
  for (std::size_t i = 0; i < a.node_results.size(); ++i) {
    EXPECT_EQ(a.node_results[i].cycles, b.node_results[i].cycles);
    EXPECT_EQ(a.node_results[i].harvested.value(),
              b.node_results[i].harvested.value());
  }
}

TEST(FleetSimulator, ParallelBitIdenticalToSerial) {
  const FleetSimulator sim(quick_scenario());
  const FleetReport parallel = sim.run({.parallel = true});
  const FleetReport serial = sim.run({.parallel = false});
  EXPECT_EQ(parallel.summary_hash, serial.summary_hash);
  EXPECT_EQ(parallel.total_cycles, serial.total_cycles);
  EXPECT_EQ(parallel.total_harvested.value(), serial.total_harvested.value());
}

TEST(FleetSimulator, DifferentSeedsProduceDifferentFleets) {
  FleetScenario a_scenario = quick_scenario();
  FleetScenario b_scenario = quick_scenario();
  b_scenario.seed = 43;
  const FleetReport a = FleetSimulator(a_scenario).run();
  const FleetReport b = FleetSimulator(b_scenario).run();
  EXPECT_NE(a.summary_hash, b.summary_hash);
}

TEST(FleetSimulator, SamplingDependsOnlyOnSeedAndIndex) {
  const FleetSimulator sim(quick_scenario());
  const NodeSample first = sim.sample_node(3);
  const NodeSample again = sim.sample_node(3);
  EXPECT_EQ(first.pv_scale, again.pv_scale);
  EXPECT_EQ(first.solar_capacitance.value(), again.solar_capacitance.value());
  EXPECT_EQ(first.conditions.temperature_c, again.conditions.temperature_c);
  EXPECT_EQ(first.conditions.corner, again.conditions.corner);
  EXPECT_EQ(first.min_energy, again.min_energy);
}

TEST(FleetSimulator, CoarsenEpsReachesFastPathNodes) {
  // The scenario's trace_coarsen_eps reaches the reference kernel's
  // fast-path nodes: keeping every flattened knot moves a greedy_mpp fleet.
  // Audit builds run those nodes on the dense loop, which reads no knots.
  FleetScenario s = quick_scenario();
  s.trace_kind = TraceKind::kClouds;
  s.policy = "greedy_mpp";
  const FleetReport coarsened = FleetSimulator(s).run({.parallel = false});
  s.trace_coarsen_eps = 0.0;
  const FleetReport exact = FleetSimulator(s).run({.parallel = false});
  if (audit_compiled_in()) {
    EXPECT_EQ(coarsened.summary_hash, exact.summary_hash);
  } else {
    EXPECT_NE(coarsened.summary_hash, exact.summary_hash);
  }
}

TEST(FleetSimulator, PopulationIsHeterogeneous) {
  FleetScenario scenario = quick_scenario();
  scenario.nodes = 32;
  const FleetSimulator sim(scenario);
  std::set<long> pv_scales;
  std::set<long> caps;
  for (int i = 0; i < scenario.nodes; ++i) {
    const NodeSample s = sim.sample_node(i);
    EXPECT_GE(s.pv_scale, scenario.pv_scale_min);
    EXPECT_LE(s.pv_scale, scenario.pv_scale_max);
    EXPECT_GE(s.solar_capacitance.value(), scenario.solar_cap_min.value());
    EXPECT_LE(s.solar_capacitance.value(), scenario.solar_cap_max.value());
    EXPECT_GE(s.conditions.temperature_c, -20.0);
    EXPECT_LE(s.conditions.temperature_c, 85.0);
    pv_scales.insert(std::lround(s.pv_scale * 1e6));
    caps.insert(std::lround(s.solar_capacitance.value() * 1e12));
  }
  EXPECT_GT(pv_scales.size(), 16u);  // not all nodes identical
  EXPECT_GT(caps.size(), 16u);
}

// Cloudy per-node skies under which a managed node's sprint bypass rides a
// shared node that strong sun pushes above Vmax.  Both variants used to abort
// the fleet mid-run with SpeedModel's envelope RangeError.
FleetScenario sprint_overshoot_scenario(int variant) {
  FleetScenario s = FleetScenario::from_string(
      "name = sprint_overshoot\n"
      "nodes = 8\n"
      "seed = 2018\n"
      "day_length_s = 0.02\n"
      "time_step_us = 10\n"
      "waveform_interval_us = 500\n"
      "trace = clouds\n"
      "shared_trace = false\n"
      "job_cycles = 5e5\n"
      "job_period_ms = 4\n"
      "job_deadline_ms = 2\n");
  if (variant == 0) {
    s.job_cycles = 5e4;
  } else {
    s.seed = 11;
    s.day_length = Seconds(0.05);
    s.job_period = Seconds(10e-3);
    s.job_deadline = Seconds(5e-3);
    s.solar_cap_max = Farads(30e-6);
  }
  return s;
}

void expect_overshoot_fleets_complete(const char* policy) {
  for (const int variant : {0, 1}) {
    SCOPED_TRACE(testing::Message() << policy << " variant " << variant);
    FleetScenario s = sprint_overshoot_scenario(variant);
    s.policy = policy;
    const FleetSimulator sim(s);
    FleetReport r;
    EXPECT_NO_THROW(r = sim.run({.parallel = false}));
    EXPECT_GT(r.total_cycles, 0.0);
  }
}

TEST(FleetSimulator, SprintBypassAboveVmaxCompletesOnFastEngine) {
  for (const char* policy : {"hyst_eager", "edf_sprint"}) {
    ASSERT_TRUE(PolicyRegistry::global().at(policy).fast_path()) << policy;
    expect_overshoot_fleets_complete(policy);
  }
}

TEST(FleetSimulator, SprintBypassAboveVmaxCompletesOnDenseLoop) {
  ASSERT_FALSE(PolicyRegistry::global().at("mpp_track").fast_path());
  expect_overshoot_fleets_complete("mpp_track");
}

TEST(FleetSimulator, NodesMakeProgressUnderSteadyLight) {
  const FleetSimulator sim(quick_scenario());
  const FleetReport report = sim.run();
  EXPECT_EQ(report.nodes, 6);
  EXPECT_GT(report.total_cycles, 0.0);
  EXPECT_GT(report.total_harvested.value(), 0.0);
  EXPECT_GT(report.total_jobs_submitted, 0);
  for (const NodeResult& r : report.node_results) {
    EXPECT_GT(r.cycles, 0.0);
    EXPECT_GE(r.deadline_hit_rate, 0.0);
    EXPECT_LE(r.deadline_hit_rate, 1.0);
    EXPECT_GE(r.mppt_error, 0.0);
  }
}

TEST(FleetSimulator, PerNodeTracesDifferUnderDiurnalSky) {
  FleetScenario scenario = quick_scenario();
  scenario.trace_kind = TraceKind::kDiurnal;
  scenario.shared_trace = false;
  scenario.job_cycles = 0.0;
  const FleetReport report = FleetSimulator(scenario).run();
  // Different skies + different hardware: harvests must not all agree.
  std::set<long> harvests;
  for (const NodeResult& r : report.node_results) {
    harvests.insert(std::lround(r.harvested.value() * 1e12));
  }
  EXPECT_GT(harvests.size(), 1u);
}

TEST(FleetSimulator, SummarizeOrderStatistics) {
  const MetricSummary s = summarize({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_THROW(summarize({}), ModelError);
}

TEST(FleetSimulator, AggregateTotalsMatchNodeSums) {
  const FleetSimulator sim(quick_scenario());
  const FleetReport report = sim.run();
  double cycles = 0.0;
  long completed = 0;
  for (const NodeResult& r : report.node_results) {
    cycles += r.cycles;
    completed += r.jobs_completed;
  }
  EXPECT_DOUBLE_EQ(report.total_cycles, cycles);
  EXPECT_EQ(report.total_jobs_completed, completed);
  EXPECT_EQ(report.summary_hash, fleet_hash(report.node_results));
}

TEST(FleetReportWriters, ThrowOnFullDisk) {
  // Both files fit in the stream buffer, so only a checked close sees the
  // ENOSPC that /dev/full returns.
  const FleetReport report = FleetSimulator(quick_scenario()).run();
  EXPECT_THROW(write_summary_json(report, "/dev/full"), ModelError);
  EXPECT_THROW(write_node_csv(report, "/dev/full"), ModelError);
}

}  // namespace
}  // namespace hemp
