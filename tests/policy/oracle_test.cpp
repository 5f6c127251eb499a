#include "policy/oracle.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "fleet/fleet_sim.hpp"
#include "harvester/pv_cell.hpp"
#include "policy/registry.hpp"
#include "processor/processor.hpp"
#include "regulator/switched_cap.hpp"

namespace hemp {
namespace {

// Fixed smoke scenario for the oracle-bound contract.  Per-node skies are
// derived from Rng(seed).fork(node) before any policy decision, so every
// policy below sees exactly the same irradiance traces.
const char* kSmoke =
    "name = oracle_smoke\n"
    "nodes = 4\n"
    "seed = 23\n"
    "day_length_s = 0.02\n"
    "time_step_us = 10\n"
    "waveform_interval_us = 500\n"
    "trace = diurnal\n"
    "job_cycles = 5e5\n"
    "job_period_ms = 4\n"
    "job_deadline_ms = 2\n";

double run_policy_cycles(const std::string& policy) {
  FleetScenario s =
      FleetScenario::from_string(std::string(kSmoke) + "policy = " + policy + "\n");
  FleetOptions opts;
  opts.parallel = false;
  return FleetSimulator(s).run(opts).total_cycles;
}

TEST(DpOracle, UpperBoundsEveryOnlinePolicyOnSmokeScenario) {
  const double oracle = run_policy_cycles("oracle_dp");
  ASSERT_GT(oracle, 0.0);
  for (const std::string& name : PolicyRegistry::global().names()) {
    if (name == "oracle_dp") continue;
    const double online = run_policy_cycles(name);
    // The oracle's physics are strictly optimistic (lossless path, perfect
    // MPP harvest), so it must dominate; the margin absorbs time/energy
    // discretization of the DP grid.
    EXPECT_GE(oracle, online * 0.99)
        << "online policy " << name << " beat the clairvoyant oracle: "
        << online << " > " << oracle;
  }
}

TEST(DpOracle, SolutionInvariants) {
  const PvCell cell = make_ixys_kxob22_cell();
  const SwitchedCapRegulator sc;
  const Processor proc = Processor::make_test_chip();
  const SystemModel model{cell, sc, proc};

  DpOracleParams params;
  params.time_slots = 60;
  params.energy_levels = 24;
  const DpOracle oracle(model, params);

  // Action 0 is always "off"; run actions draw positive power.
  ASSERT_GE(oracle.actions().size(), 2u);
  EXPECT_FALSE(oracle.actions()[0].run);
  for (std::size_t i = 1; i < oracle.actions().size(); ++i) {
    EXPECT_TRUE(oracle.actions()[i].run);
    EXPECT_GT(oracle.actions()[i].power.value(), 0.0);
    EXPECT_GT(oracle.actions()[i].frequency.value(), 0.0);
  }

  const IrradianceTrace trace =
      IrradianceTrace::diurnal(0.8, Seconds(0.002), Seconds(0.018));
  PolicyWorkload workload;
  workload.job_cycles = 5e5;
  workload.period = Seconds(4e-3);
  workload.deadline = Seconds(2e-3);
  const DpOracle::Solution sol =
      oracle.solve(trace, Seconds(0.02), Farads(47e-6), Volts(1.2), workload);

  EXPECT_EQ(sol.schedule.size(), 60u);
  for (const std::uint8_t a : sol.schedule) {
    EXPECT_LT(a, oracle.actions().size());
  }
  EXPECT_GE(sol.cycles, 0.0);
  EXPECT_GT(sol.harvest_available.value(), 0.0);
  // Energy conservation under the optimistic physics: the schedule cannot
  // spend more than the harvest plus the initial store.
  const double e0 = 0.5 * 47e-6 * 1.2 * 1.2;
  EXPECT_LE(sol.spent.value(), sol.harvest_available.value() + e0 + 1e-12);
  EXPECT_GE(sol.jobs.hit_rate(), 0.0);
  EXPECT_LE(sol.jobs.hit_rate(), 1.0);
  EXPECT_GE(sol.off_time.value(), 0.0);
  EXPECT_LE(sol.off_time.value(), 0.02 + 1e-12);
  // A job submitted right at the horizon is still in flight (deadline beyond
  // the trace), so adjudicated <= submitted with at most one pending.
  EXPECT_LE(sol.jobs.completed + sol.jobs.missed, sol.jobs.submitted);
  EXPECT_GE(sol.jobs.completed + sol.jobs.missed, sol.jobs.submitted - 1);
}

TEST(DpOracle, MoreLightNeverHurts) {
  const PvCell cell = make_ixys_kxob22_cell();
  const SwitchedCapRegulator sc;
  const Processor proc = Processor::make_test_chip();
  const SystemModel model{cell, sc, proc};

  DpOracleParams params;
  params.time_slots = 40;
  params.energy_levels = 16;
  const DpOracle oracle(model, params);

  const PolicyWorkload none{};
  const auto dim = oracle.solve(IrradianceTrace::constant(0.2), Seconds(0.02),
                                Farads(47e-6), Volts(1.2), none);
  const auto bright = oracle.solve(IrradianceTrace::constant(0.8), Seconds(0.02),
                                   Farads(47e-6), Volts(1.2), none);
  EXPECT_GE(bright.cycles, dim.cycles);
  EXPECT_GE(bright.harvest_available.value(), dim.harvest_available.value());
}

TEST(DpOracleParams, Validation) {
  DpOracleParams p;
  p.time_slots = 0;
  EXPECT_THROW(p.validate(), ModelError);
  p = DpOracleParams{};
  p.energy_levels = 1;
  EXPECT_THROW(p.validate(), ModelError);
  p = DpOracleParams{};
  p.ladder_points = 0;
  EXPECT_THROW(p.validate(), ModelError);
}

}  // namespace
}  // namespace hemp
