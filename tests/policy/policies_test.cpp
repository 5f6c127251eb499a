#include "policy/controllers.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "common/error.hpp"
#include "fleet/batch_kernel.hpp"
#include "fleet/fleet_sim.hpp"
#include "policy/registry.hpp"

namespace hemp {
namespace {

// Tiny deterministic fleet: milliseconds of wall time per run.
const char* kSmoke =
    "name = policy_smoke\n"
    "nodes = 6\n"
    "seed = 11\n"
    "day_length_s = 0.02\n"
    "time_step_us = 10\n"
    "waveform_interval_us = 500\n"
    "trace = diurnal\n"
    "job_cycles = 5e5\n"
    "job_period_ms = 4\n"
    "job_deadline_ms = 2\n";

FleetScenario smoke_scenario(const std::string& extra = "") {
  return FleetScenario::from_string(std::string(kSmoke) + extra);
}

FleetReport run_reference(const FleetScenario& s, bool parallel = false) {
  FleetOptions opts;
  opts.parallel = parallel;
  return FleetSimulator(s).run(opts);
}

// --- Ported legacy modes are bit-compatible with the pre-policy fleet -------

TEST(PolicyZoo, ForcedMppTrackMatchesLegacyMixReference) {
  FleetScenario legacy = smoke_scenario("min_energy_fraction = 0\n");
  FleetScenario forced = smoke_scenario(
      "min_energy_fraction = 0\n"
      "policy = mpp_track\n");
  EXPECT_EQ(run_reference(legacy).summary_hash,
            run_reference(forced).summary_hash);
}

TEST(PolicyZoo, ForcedMepHoldMatchesLegacyMixReference) {
  FleetScenario legacy = smoke_scenario("min_energy_fraction = 1\n");
  FleetScenario forced = smoke_scenario(
      "min_energy_fraction = 1\n"
      "policy = mep_hold\n");
  EXPECT_EQ(run_reference(legacy).summary_hash,
            run_reference(forced).summary_hash);
}

TEST(PolicyZoo, ForcedMppTrackMatchesLegacyMixBatch) {
  FleetScenario legacy = smoke_scenario("min_energy_fraction = 0\n");
  FleetScenario forced = smoke_scenario(
      "min_energy_fraction = 0\n"
      "policy = mpp_track\n");
  const FleetReport a = BatchFleetKernel(legacy).run({.parallel = false});
  const FleetReport b = BatchFleetKernel(forced).run({.parallel = false});
  EXPECT_EQ(a.summary_hash, b.summary_hash);
}

TEST(PolicyZoo, ForcedMepHoldMatchesLegacyMixBatch) {
  FleetScenario legacy = smoke_scenario("min_energy_fraction = 1\n");
  FleetScenario forced = smoke_scenario(
      "min_energy_fraction = 1\n"
      "policy = mep_hold\n");
  const FleetReport a = BatchFleetKernel(legacy).run({.parallel = false});
  const FleetReport b = BatchFleetKernel(forced).run({.parallel = false});
  EXPECT_EQ(a.summary_hash, b.summary_hash);
}

// --- Execution-tier routing -------------------------------------------------

TEST(PolicyZoo, BatchKernelRejectsPoliciesWithoutBatchSpec) {
  FleetScenario s = smoke_scenario("policy = edf_sprint\n");
  try {
    const BatchFleetKernel kernel(s);
    FAIL() << "edf_sprint has no batch lane";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("reference"), std::string::npos)
        << "error should point at the reference kernel";
  }
}

TEST(PolicyZoo, ManagedBatchSpecsCarryTheirParams) {
  const EnergyManagerParams defaults;
  struct Want {
    const char* name;
    ManagerMode mode;
    double enter;
    double exit;
    QueueDiscipline queue;
    bool batch;
  };
  for (const Want& w :
       {Want{"mpp_track", ManagerMode::kMaxPerformance, defaults.bypass_enter_ratio,
             defaults.bypass_exit_ratio, QueueDiscipline::kFifo, true},
        Want{"mep_hold", ManagerMode::kMinEnergy, defaults.bypass_enter_ratio,
             defaults.bypass_exit_ratio, QueueDiscipline::kFifo, true},
        Want{"hyst_eager", ManagerMode::kMaxPerformance, 1.1, 1.5,
             QueueDiscipline::kFifo, true},
        Want{"hyst_reluctant", ManagerMode::kMaxPerformance, 0.5, 0.7,
             QueueDiscipline::kFifo, true},
        // EDF is not a discipline the batch lane implements.
        Want{"edf_sprint", ManagerMode::kMaxPerformance,
             defaults.bypass_enter_ratio, defaults.bypass_exit_ratio,
             QueueDiscipline::kEdf, false}}) {
    SCOPED_TRACE(w.name);
    const EnergyPolicy& policy = PolicyRegistry::global().at(w.name);
    const std::optional<EnergyManagerParams> p = policy.manager_params();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->mode, w.mode);
    EXPECT_EQ(p->low_light_bypass_enabled, defaults.low_light_bypass_enabled);
    EXPECT_EQ(p->bypass_enter_ratio, w.enter);
    EXPECT_EQ(p->bypass_exit_ratio, w.exit);
    EXPECT_EQ(p->queue_discipline, w.queue);
    EXPECT_EQ(p->recover_voltage, defaults.recover_voltage);
    EXPECT_EQ(p->tracker.dvfs_steps, defaults.tracker.dvfs_steps);
    EXPECT_EQ(BatchFleetKernel::runs(policy), w.batch);
  }
  // Policies without a manager have no lane either.
  for (const char* name : {"greedy_mpp", "duty25", "duty50", "oracle_dp"}) {
    SCOPED_TRACE(name);
    const EnergyPolicy& policy = PolicyRegistry::global().at(name);
    EXPECT_FALSE(policy.manager_params().has_value());
    EXPECT_FALSE(BatchFleetKernel::runs(policy));
  }
  // The lane's ladder has 48 steps: a manager on another ladder is refused.
  EnergyManagerParams coarse;
  coarse.tracker.dvfs_steps = 24;
  EXPECT_FALSE(BatchFleetKernel::runs(*make_managed_policy("coarse", "", coarse, false)));
  EXPECT_TRUE(BatchFleetKernel::runs(*make_managed_policy("fine", "", defaults, false)));
}

TEST(PolicyZoo, OracleIsOfflineOnly) {
  const EnergyPolicy& oracle = PolicyRegistry::global().at("oracle_dp");
  EXPECT_FALSE(oracle.manager_params().has_value());
  EXPECT_THROW((void)oracle.make_controller(PolicyContext{}), ModelError);
}

// --- Every registered policy runs deterministically on the fleet ------------

TEST(PolicyZoo, EveryPolicyRunsAndIsSerialParallelDeterministic) {
  for (const std::string& name : PolicyRegistry::global().names()) {
    FleetScenario s = smoke_scenario("policy = " + name + "\n");
    const FleetReport serial = run_reference(s, /*parallel=*/false);
    const FleetReport parallel = run_reference(s, /*parallel=*/true);
    EXPECT_EQ(serial.summary_hash, parallel.summary_hash) << name;
    EXPECT_EQ(serial.nodes, 6) << name;
    EXPECT_GE(serial.total_cycles, 0.0) << name;
    EXPECT_GE(serial.deadline_hit_rate.mean, 0.0) << name;
    EXPECT_LE(serial.deadline_hit_rate.mean, 1.0) << name;
  }
}

// --- JobTracker adjudication ------------------------------------------------

PolicyWorkload tracker_workload() {
  PolicyWorkload w;
  w.job_cycles = 100.0;
  w.period = Seconds(1.0);
  w.deadline = Seconds(0.5);
  return w;
}

TEST(JobTracker, NoWorkloadIsInert) {
  JobTracker t(PolicyWorkload{});
  t.update(Seconds(10.0), 1e9);
  EXPECT_EQ(t.stats().submitted, 0);
  EXPECT_EQ(t.stats().completed, 0);
  EXPECT_EQ(t.stats().missed, 0);
}

TEST(JobTracker, CompletesBeforeDeadline) {
  JobTracker t(tracker_workload());
  t.update(Seconds(0.0), 0.0);
  EXPECT_EQ(t.stats().submitted, 1);
  t.update(Seconds(0.4), 150.0);
  EXPECT_EQ(t.stats().completed, 1);
  EXPECT_EQ(t.stats().missed, 0);
}

TEST(JobTracker, MissesWhenCyclesComeTooLate) {
  JobTracker t(tracker_workload());
  t.update(Seconds(0.0), 0.0);
  t.update(Seconds(0.3), 40.0);   // partial progress, still pending
  EXPECT_EQ(t.stats().completed, 0);
  t.update(Seconds(0.6), 40.0);   // deadline 0.5 passed with 40 < 100 cycles
  EXPECT_EQ(t.stats().missed, 1);
  EXPECT_EQ(t.stats().completed, 0);
}

TEST(JobTracker, SequentialJobsAdjudicateIndependently) {
  JobTracker t(tracker_workload());
  t.update(Seconds(0.0), 0.0);
  t.update(Seconds(0.4), 150.0);  // job 0 completes
  t.update(Seconds(1.0), 150.0);  // job 1 submits, no progress yet
  t.update(Seconds(1.6), 200.0);  // 50 cycles < 100 by deadline 1.5 -> miss
  const PolicyJobStats s = t.stats();
  EXPECT_EQ(s.submitted, 2);
  EXPECT_EQ(s.completed, 1);
  EXPECT_EQ(s.missed, 1);
}

TEST(JobTracker, SlackForgivesSlotBoundaryCompletion) {
  JobTracker strict(tracker_workload());
  strict.update(Seconds(0.0), 0.0);
  strict.update(Seconds(0.6), 150.0);  // finished, but observed past deadline
  EXPECT_EQ(strict.stats().missed, 1);

  JobTracker slacked(tracker_workload(), Seconds(0.2));
  slacked.update(Seconds(0.0), 0.0);
  slacked.update(Seconds(0.6), 150.0);  // 0.6 <= 0.5 + 0.2 -> on time
  EXPECT_EQ(slacked.stats().completed, 1);
}

}  // namespace
}  // namespace hemp
