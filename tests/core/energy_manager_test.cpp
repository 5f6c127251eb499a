#include "core/energy_manager.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/solver_stats.hpp"
#include "core/control_plant.hpp"
#include "regulator/switched_cap.hpp"
#include "sim/soc_system.hpp"

namespace hemp {
namespace {

using namespace hemp::literals;

struct Fixture {
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

TEST(EnergyManager, TracksMppInSteadyState) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  SocSystem soc = f.make_soc();
  const SimResult r = soc.run(IrradianceTrace::constant(1.0), mgr, 120.0_ms);
  const MaxPowerPoint mpp = find_mpp(f.cell, 1.0);
  EXPECT_NEAR(r.final_state.v_solar.value(), mpp.voltage.value(), 0.1);
  EXPECT_GT(r.totals.cycles, 0.0);
  EXPECT_FALSE(mgr.in_bypass());
}

TEST(EnergyManager, CompletesSubmittedJob) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  mgr.submit({4e6, 12.0_ms});
  SocSystem soc = f.make_soc();
  soc.run(IrradianceTrace::constant(1.0), mgr, 100.0_ms);
  EXPECT_EQ(mgr.jobs_completed(), 1);
  EXPECT_EQ(mgr.jobs_missed(), 0);
}

TEST(EnergyManager, CompletesBackToBackJobs) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  mgr.submit({2e6, 8.0_ms});
  mgr.submit({2e6, 8.0_ms});
  mgr.submit({2e6, 8.0_ms});
  SocSystem soc = f.make_soc();
  soc.run(IrradianceTrace::constant(1.0), mgr, 400.0_ms);
  EXPECT_EQ(mgr.jobs_completed(), 3);
}

TEST(EnergyManager, ImpossibleJobIsMissedNotHung) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  mgr.submit({1e12, 1.0_ms});  // needs a THz clock: plan infeasible
  SocSystem soc = f.make_soc();
  soc.run(IrradianceTrace::constant(1.0), mgr, 50.0_ms);
  EXPECT_EQ(mgr.jobs_completed(), 0);
  EXPECT_EQ(mgr.jobs_missed(), 1);
}

TEST(EnergyManager, EntersBypassUnderWeakLight) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  SocSystem soc = f.make_soc();
  // Full sun long enough to settle, then drop to 10%: the manager should
  // estimate the new input power and switch to the bypass path (Fig. 7a rule).
  soc.run(IrradianceTrace::step(1.0, 0.10, 100.0_ms), mgr, 400.0_ms);
  EXPECT_TRUE(mgr.in_bypass());
}

TEST(EnergyManager, StaysRegulatedUnderStrongLight) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  SocSystem soc = f.make_soc();
  soc.run(IrradianceTrace::constant(0.8), mgr, 200.0_ms);
  EXPECT_FALSE(mgr.in_bypass());
}

TEST(EnergyManager, MinEnergyModeRunsNearHolisticMep) {
  Fixture f;
  EnergyManagerParams params;
  params.mode = ManagerMode::kMinEnergy;
  EnergyManager mgr(f.model, params);
  SocSystem soc = f.make_soc();
  const SimResult r = soc.run(IrradianceTrace::constant(1.0), mgr, 60.0_ms);
  const MepOptimizer mep(f.model);
  const MepPoint holistic = mep.holistic(0.5);
  EXPECT_NEAR(r.final_state.v_dd.value(), holistic.vdd.value(), 0.06);
}

TEST(EnergyManager, MinEnergyModeUsesLessPowerThanPerfMode) {
  Fixture f;
  EnergyManagerParams perf;
  EnergyManagerParams eco;
  eco.mode = ManagerMode::kMinEnergy;
  EnergyManager mgr_perf(f.model, perf);
  EnergyManager mgr_eco(f.model, eco);
  SocSystem soc1 = f.make_soc();
  SocSystem soc2 = f.make_soc();
  const SimResult r_perf =
      soc1.run(IrradianceTrace::constant(1.0), mgr_perf, 80.0_ms);
  const SimResult r_eco = soc2.run(IrradianceTrace::constant(1.0), mgr_eco, 80.0_ms);
  EXPECT_LT(r_eco.totals.delivered_to_processor.value(),
            r_perf.totals.delivered_to_processor.value());
  // But energy per cycle must be better in eco mode.
  const double epc_perf =
      r_perf.totals.delivered_to_processor.value() / r_perf.totals.cycles;
  const double epc_eco =
      r_eco.totals.delivered_to_processor.value() / r_eco.totals.cycles;
  EXPECT_LT(epc_eco, epc_perf);
}

// --- Light step events: brownout, recovery, re-acquired MPP -----------------

TEST(EnergyManagerLightSteps, DeepStepDownBrownsOut) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  SocSystem soc = f.make_soc();
  // Settle at full sun, then the lamp goes out entirely: the storage caps
  // drain and the core must brown out instead of limping along.
  const SimResult r =
      soc.run(IrradianceTrace::step(1.0, 0.0, 60.0_ms), mgr, 200.0_ms);
  EXPECT_GE(r.totals.brownouts, 1);
  EXPECT_GT(r.totals.halted_time.value(), 0.0);
  EXPECT_FALSE(r.final_state.processor_running);
  // All the progress came from the lit interval plus the cap ride-through.
  EXPECT_GT(r.waveform.value_at("cycles", 60.0_ms), 0.0);
}

TEST(EnergyManagerLightSteps, StepUpLeavesBypassAndReacquiresMpp) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  SocSystem soc = f.make_soc();
  // Dim dawn (manager sits in the low-light bypass), then full sun: it must
  // move back onto the regulator and settle at the new light level's MPP.
  const SimResult r =
      soc.run(IrradianceTrace::step(0.02, 1.0, 80.0_ms), mgr, 300.0_ms);
  EXPECT_FALSE(mgr.in_bypass());
  EXPECT_TRUE(r.final_state.processor_running);
  const MaxPowerPoint mpp = find_mpp(f.cell, 1.0);
  EXPECT_NEAR(r.final_state.v_solar.value(), mpp.voltage.value(), 0.1);
  // Nearly all forward progress comes after the step.
  const double before_step = r.waveform.value_at("cycles", 80.0_ms);
  EXPECT_GT(r.totals.cycles, 2.0 * before_step + 1.0);
}

TEST(EnergyManagerLightSteps, RecoversMppAfterNightInterval) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  SocSystem soc = f.make_soc();
  const IrradianceTrace trace(
      [](Seconds t) {
        if (t.value() < 0.06) return 1.0;  // morning
        if (t.value() < 0.14) return 0.0;  // blackout
        return 1.0;                        // second day
      },
      "day-night-day");
  const SimResult r = soc.run(trace, mgr, 300.0_ms);
  // The blackout browns the node out...
  EXPECT_GE(r.totals.brownouts, 1);
  // ...but the second day re-acquires the MPP and resumes retiring work.
  EXPECT_FALSE(mgr.in_bypass());
  const MaxPowerPoint mpp = find_mpp(f.cell, 1.0);
  EXPECT_NEAR(r.final_state.v_solar.value(), mpp.voltage.value(), 0.1);
  const double after_dawn = r.waveform.value_at("cycles", 160.0_ms);
  EXPECT_GT(r.totals.cycles, after_dawn);
}

TEST(EnergyManager, SubmitValidation) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  EXPECT_THROW(mgr.submit({0.0, 1.0_ms}), ModelError);
  EXPECT_THROW(mgr.submit({1e6, Seconds(0.0)}), ModelError);
}

TEST(EnergyManagerParams, Validation) {
  Fixture f;
  EnergyManagerParams p;
  p.sprint_factor = 0.9;
  EXPECT_THROW(EnergyManager(f.model, p), ModelError);
  p = EnergyManagerParams{};
  p.bypass_enter_ratio = 1.5;  // above exit ratio
  p.bypass_exit_ratio = 1.2;
  EXPECT_THROW(EnergyManager(f.model, p), ModelError);
}

// --- The manager on a scripted plant ----------------------------------------
//
// A ControlPlant with no physics behind it: every answer is a fixed rule, so
// these tests set the manager's inputs directly, step it by hand and run no
// solver at all.

struct ScriptedPlant final : ControlPlant {
  Watts crossover{1e-3};
  SprintPlan plan{};
  Volts lut_vmpp{0.95};
  Watts lut_budget{0.5e-3};
  /// holistic_mep calls per light level.
  mutable std::map<double, int> mep_calls;
  mutable int plan_calls = 0;
  /// Reads of Eq. 7's table.
  int vmpp_reads = 0;
  int pmpp_reads = 0;

  bool supports(Volts vin, Volts vout) const override {
    return vout.value() <= 0.9 * vin.value();
  }
  double efficiency(Volts, Volts, Watts) const override { return 1.0; }
  Volts min_voltage() const override { return Volts(0.3); }
  Volts max_voltage() const override { return Volts(1.0); }
  Hertz max_frequency(Volts vdd) const override { return Hertz(100e6 * vdd.value()); }
  Watts max_power(Volts vdd) const override { return Watts(1e-3 * vdd.value()); }
  Volts mpp_voltage_for(Watts) override {
    ++vmpp_reads;
    return lut_vmpp;
  }
  Watts mpp_power_for(Watts) override {
    ++pmpp_reads;
    return lut_budget;
  }
  MaxPowerPoint full_sun_mpp() const override {
    return {Volts(1.0), Amps(10e-3), Watts(10e-3)};
  }
  Watts crossover_power() const override { return crossover; }
  MepPoint holistic_mep(double g) const override {
    ++mep_calls[g];
    return {Volts(0.4 + 0.1 * g), Joules(1e-12), Hertz(40e6), true};
  }
  /// `plan`, stamped with the job it was asked for.
  SprintPlan sprint_plan(double cycles, Seconds deadline, double) const override {
    ++plan_calls;
    SprintPlan out = plan;
    out.cycles = cycles;
    out.deadline = deadline;
    return out;
  }
};

/// Drives a controller by hand: each tick sets the observed state.
struct Driver {
  SocController& ctl;
  SocState state{};
  SocCommand cmd{};
  solver_stats::Snapshot before = solver_stats::snapshot();

  void start(Volts v_solar) {
    state.v_solar = v_solar;
    ctl.on_start(state, cmd);
  }
  void tick(Seconds t, Volts v_solar, Volts v_dd, Watts p_processor,
            double cycles = 0.0) {
    state.time = t;
    state.v_solar = v_solar;
    state.v_dd = v_dd;
    state.p_processor = p_processor;
    state.cycles_retired = cycles;
    ctl.on_tick(state, cmd);
  }
  [[nodiscard]] std::uint64_t solves() const {
    return solver_stats::delta_since(before).total();
  }
  /// The controller's step hint after the last tick, asked at its time
  /// (value-initialized, so the whole hint can be copied out).
  [[nodiscard]] SocStepHint hint() const {
    SocStepHint h{};
    h.now = state.time.value();
    ctl.step_hint(state, h);
    return h;
  }
};

TEST(EnergyManagerScripted, BypassHysteresisAcrossEnterAndExitRatios) {
  // Crossover 1 mW, enter below 0.9 mW, leave above 1.2 mW; the steady node
  // lets every 2 ms reassessment take the load as the light estimate.
  ScriptedPlant plant;
  EnergyManager mgr(plant, {});
  Driver d{mgr};
  d.start(1.2_V);
  d.tick(0.0_ms, 1.2_V, 0.5_V, Watts(0.95e-3));
  EXPECT_FALSE(mgr.in_bypass());
  d.tick(2.0_ms, 1.2_V, 0.5_V, Watts(0.85e-3));
  EXPECT_TRUE(mgr.in_bypass());
  EXPECT_EQ(d.cmd.path, PowerPath::kBypass);
  EXPECT_EQ(d.cmd.frequency.value(), 50e6);  // rides the rail at f_max(v_dd)
  d.tick(4.0_ms, 1.2_V, 0.5_V, Watts(1.1e-3));
  EXPECT_TRUE(mgr.in_bypass());
  d.tick(6.0_ms, 1.2_V, 0.5_V, Watts(1.25e-3));
  EXPECT_FALSE(mgr.in_bypass());
  EXPECT_EQ(d.cmd.path, PowerPath::kRegulated);
  EXPECT_EQ(d.solves(), 0U);
}

TEST(EnergyManagerScripted, JobSprintsBypassesOnSagRecoversAndTracks) {
  ScriptedPlant plant;
  plant.plan.feasible = true;
  plant.plan.cycles = 1e6;
  plant.plan.deadline = 10.0_ms;
  plant.plan.phase_time = 5.0_ms;
  plant.plan.slow = {0.5_V, 50.0_MHz};
  plant.plan.fast = {0.6_V, 150.0_MHz};
  EnergyManager mgr(plant, {});
  Driver d{mgr};
  d.start(1.2_V);
  mgr.submit_at({1e6, 10.0_ms}, 0.0_ms);
  d.tick(0.0_ms, 1.2_V, 0.5_V, Watts(0.0));
  ASSERT_EQ(mgr.current_state(), EnergyManager::State::kSprinting);
  EXPECT_EQ(d.cmd.vdd_target.value(), 0.5);
  EXPECT_EQ(d.cmd.frequency.value(), 50e6);
  // The rail sags 0.1 V, but the sag check arms only after 100 us.
  d.tick(0.05_ms, 1.2_V, 0.4_V, Watts(1e-4), 2.5e3);
  EXPECT_EQ(d.cmd.path, PowerPath::kRegulated);
  d.tick(0.2_ms, 1.2_V, 0.4_V, Watts(1e-4), 1e4);
  EXPECT_EQ(d.cmd.path, PowerPath::kBypass);
  ASSERT_TRUE(mgr.sprint().has_value());
  EXPECT_TRUE(mgr.sprint()->bypassed);
  d.tick(0.3_ms, 1.1_V, 0.6_V, Watts(1e-4), 2e5);
  EXPECT_EQ(d.cmd.frequency.value(), 60e6);  // bypassed: f_max of the rail
  d.tick(1.0_ms, 1.0_V, 0.6_V, Watts(1e-4), 1e6);
  EXPECT_EQ(mgr.current_state(), EnergyManager::State::kRecovering);
  EXPECT_EQ(mgr.jobs_completed(), 1);
  EXPECT_FALSE(d.cmd.run);
  d.tick(1.1_ms, 1.0_V, 0.5_V, Watts(0.0), 1e6);  // below the 1.05 V recovery
  EXPECT_EQ(mgr.current_state(), EnergyManager::State::kRecovering);
  d.tick(1.2_ms, 1.1_V, 0.5_V, Watts(0.0), 1e6);
  EXPECT_EQ(mgr.current_state(), EnergyManager::State::kTracking);
  EXPECT_TRUE(d.cmd.run);
  EXPECT_EQ(mgr.jobs_missed(), 0);
  EXPECT_EQ(d.solves(), 0U);
}

TEST(EnergyManagerScripted, InfeasiblePlanCountsAsMissed) {
  ScriptedPlant plant;  // plan.feasible stays false
  EnergyManager mgr(plant, {});
  Driver d{mgr};
  d.start(1.2_V);
  mgr.submit_at({1e6, 10.0_ms}, 0.0_ms);
  d.tick(0.0_ms, 1.2_V, 0.5_V, Watts(0.0));
  EXPECT_EQ(mgr.jobs_missed(), 1);
  EXPECT_EQ(mgr.current_state(), EnergyManager::State::kTracking);
  EXPECT_FALSE(mgr.sprinting());
  // Still tracking, yet the tracker did not run this tick: its window
  // levels stay out of the hint until it does.
  EXPECT_EQ(d.hint().solar_watch_count, 0U);
  d.tick(0.1_ms, 1.2_V, 0.5_V, Watts(0.0));
  EXPECT_EQ(d.hint().solar_watch_count, 2U);
  EXPECT_EQ(d.solves(), 0U);
}

// --- The step hint in each state ---------------------------------------------

/// Where a window comparator last seen on `above` its threshold toggles next.
double toggle(double threshold, bool above) {
  const double h = 0.5 * kComparatorHysteresis.value();
  return above ? threshold - h : threshold + h;
}

TEST(EnergyManagerScripted, HintTrackingBoundsTheTrackersControlAndWindow) {
  ScriptedPlant plant;
  EnergyManager mgr(plant, {});
  Driver d{mgr};
  d.start(1.2_V);
  d.tick(0.0_ms, 1.2_V, 0.5_V, Watts(2e-3));
  SocStepHint h = d.hint();
  EXPECT_TRUE(h.event_driven);
  EXPECT_FALSE(h.due);
  EXPECT_FALSE(h.decide_now);
  // The 500 us control tick comes before the 2 ms reassessment.
  EXPECT_DOUBLE_EQ(h.next_deadline_s, 0.5e-3);
  ASSERT_EQ(h.solar_watch_count, 2U);
  EXPECT_DOUBLE_EQ(h.solar_watch[0], toggle(1.0, true));
  EXPECT_DOUBLE_EQ(h.solar_watch[1], toggle(0.9, true));
  EXPECT_EQ(h.rail_watch_count, 0U);

  // The node falls through 1.0 V and arms the timer: DVFS holds, so the
  // passed control tick stays in the hint, due, and the high comparator
  // now toggles on the way back up.
  d.tick(1.0_ms, 0.98_V, 0.5_V, Watts(2e-3));
  h = d.hint();
  EXPECT_TRUE(h.due);
  EXPECT_FALSE(h.decide_now);
  EXPECT_DOUBLE_EQ(h.next_deadline_s, 2e-3);  // the reassessment
  ASSERT_EQ(h.solar_watch_count, 2U);
  EXPECT_DOUBLE_EQ(h.solar_watch[0], toggle(1.0, false));
  EXPECT_DOUBLE_EQ(h.solar_watch[1], toggle(0.9, true));
  EXPECT_EQ(d.solves(), 0U);
}

TEST(EnergyManagerScripted, HintPendingJobDecidesNow) {
  ScriptedPlant plant;
  EnergyManager mgr(plant, {});
  Driver d{mgr};
  d.start(1.2_V);
  d.tick(0.0_ms, 1.2_V, 0.5_V, Watts(2e-3));
  mgr.submit_at({1e6, 10.0_ms}, 0.0_ms);
  const SocStepHint h = d.hint();
  EXPECT_TRUE(h.decide_now);
  EXPECT_FALSE(h.due);  // a request, not a passed deadline
  EXPECT_DOUBLE_EQ(h.next_deadline_s, 0.5e-3);
  EXPECT_EQ(h.solar_watch_count, 2U);
}

TEST(EnergyManagerScripted, HintSprintKeepsPassedPhaseDeadlinesDue) {
  ScriptedPlant plant;
  plant.plan.feasible = true;
  plant.plan.phase_time = 5.0_ms;
  plant.plan.slow = {0.5_V, 50.0_MHz};
  plant.plan.fast = {0.6_V, 150.0_MHz};
  EnergyManager mgr(plant, {});
  Driver d{mgr};
  d.start(1.2_V);
  mgr.submit_at({1e6, 10.0_ms}, 0.0_ms);
  d.tick(0.0_ms, 1.2_V, 0.5_V, Watts(0.0));
  ASSERT_EQ(mgr.current_state(), EnergyManager::State::kSprinting);
  // Before the arm time: the sag check arms first, and the rail is not
  // watched yet.  The clock is gated (no frequency), so no sprint end.
  SocStepHint h = d.hint();
  EXPECT_FALSE(h.due);
  EXPECT_DOUBLE_EQ(h.next_deadline_s, kSprintSagArmTime);
  EXPECT_EQ(h.rail_watch_count, 0U);
  EXPECT_EQ(h.solar_watch_count, 0U);

  // Armed, still in the slow phase: the arm time is due, the phase switch
  // is next, and the rail is watched under the slow operating point.
  d.tick(0.2_ms, 1.2_V, 0.5_V, Watts(1e-4), 1e4);
  h = d.hint();
  EXPECT_TRUE(h.due);
  EXPECT_FALSE(h.decide_now);
  EXPECT_DOUBLE_EQ(h.next_deadline_s, 5e-3);
  ASSERT_EQ(h.rail_watch_count, 1U);
  EXPECT_DOUBLE_EQ(h.rail_watch[0], 0.5 - kSprintSagMargin);

  // Past the phase switch at 150 MHz: both phase deadlines are due, the
  // job's last cycle comes before the 15 ms give-up time, and the rail is
  // watched under the fast operating point.
  d.tick(6.0_ms, 1.2_V, 0.6_V, Watts(1e-4), 5e5);
  d.state.frequency = 150.0_MHz;
  h = d.hint();
  EXPECT_TRUE(h.due);
  EXPECT_DOUBLE_EQ(h.next_deadline_s, 6e-3 + 5e5 / 150e6);
  ASSERT_EQ(h.rail_watch_count, 1U);
  EXPECT_DOUBLE_EQ(h.rail_watch[0], 0.6 - kSprintSagMargin);

  // Once bypassed, only the give-up time and the sprint end remain.
  d.tick(6.1_ms, 1.2_V, 0.4_V, Watts(1e-4), 5e5);
  ASSERT_TRUE(mgr.sprint().has_value());
  ASSERT_TRUE(mgr.sprint()->bypassed);
  d.state.frequency = Hertz(0.0);
  h = d.hint();
  EXPECT_FALSE(h.due);
  EXPECT_DOUBLE_EQ(h.next_deadline_s, 15e-3);
  EXPECT_EQ(h.rail_watch_count, 0U);
  EXPECT_EQ(d.solves(), 0U);
}

TEST(EnergyManagerScripted, HintRecoveryWatchesOnlyTheRecoveryLevel) {
  ScriptedPlant plant;
  plant.plan.feasible = true;
  plant.plan.phase_time = 5.0_ms;
  plant.plan.slow = {0.5_V, 50.0_MHz};
  plant.plan.fast = {0.6_V, 150.0_MHz};
  EnergyManager mgr(plant, {});
  Driver d{mgr};
  d.start(1.2_V);
  mgr.submit_at({1e6, 10.0_ms}, 0.0_ms);
  d.tick(0.0_ms, 1.2_V, 0.5_V, Watts(0.0));
  d.tick(1.0_ms, 1.0_V, 0.5_V, Watts(1e-4), 1e6);  // done, node at 1.0 V
  ASSERT_EQ(mgr.current_state(), EnergyManager::State::kRecovering);
  // Even with the next job waiting, recovery asks for no decision: it ends
  // when the node crosses the recovery level.
  mgr.submit_at({1e6, 10.0_ms}, 1.0_ms);
  const SocStepHint h = d.hint();
  EXPECT_TRUE(h.event_driven);
  EXPECT_FALSE(h.due);
  EXPECT_FALSE(h.decide_now);
  EXPECT_EQ(h.next_deadline_s, std::numeric_limits<double>::infinity());
  ASSERT_EQ(h.solar_watch_count, 1U);
  EXPECT_EQ(h.solar_watch[0], EnergyManagerParams{}.recover_voltage.value());
  EXPECT_EQ(h.rail_watch_count, 0U);
}

TEST(EnergyManagerScripted, MepSolvedOncePerLightBucket) {
  ScriptedPlant plant;
  EnergyManagerParams params;
  params.mode = ManagerMode::kMinEnergy;
  EnergyManager mgr(plant, params);
  Driver d{mgr};
  d.start(1.2_V);  // holds the 0.5-sun MEP until a light estimate exists
  EXPECT_EQ(d.cmd.vdd_target.value(), 0.45);
  // Estimates over a 10 mW full-sun MPP: 0.5 and 0.51 share a 0.05-sun
  // bucket, 0.2 has its own, and the return to 0.5 hits the memo.
  for (const auto& [t, p] : {std::pair{0.0_ms, 5e-3}, std::pair{2.0_ms, 5.1e-3},
                             std::pair{4.0_ms, 2e-3}, std::pair{6.0_ms, 5e-3}}) {
    d.tick(t, 1.2_V, 0.5_V, Watts(p));
  }
  EXPECT_EQ(plant.mep_calls, (std::map<double, int>{{0.2, 1}, {0.5, 1}}));
  EXPECT_EQ(d.cmd.vdd_target.value(), 0.45);
  EXPECT_EQ(d.solves(), 0U);
}

/// A feasible plant plan for 1e6-cycle jobs.
ScriptedPlant sprinting_plant() {
  ScriptedPlant plant;
  plant.plan.feasible = true;
  plant.plan.cycles = 1e6;
  plant.plan.phase_time = 5.0_ms;
  plant.plan.slow = {0.5_V, 50.0_MHz};
  plant.plan.fast = {0.6_V, 150.0_MHz};
  return plant;
}

/// Starts the queued job at `t`, finishes it on the next tick and recovers:
/// four ticks 1/1024 s apart, so every time and budget is exact in binary.
/// Returns the started job's plan.
SprintPlan run_one_job(EnergyManager& mgr, Driver& d, double& t, double& cycles) {
  constexpr double kTick = 1.0 / 1024.0;
  d.tick(Seconds(t), 1.2_V, 0.5_V, Watts(0.0), cycles);
  EXPECT_EQ(mgr.current_state(), EnergyManager::State::kSprinting);
  const SprintPlan plan = mgr.sprint() ? mgr.sprint()->plan : SprintPlan{};
  cycles += plan.cycles;
  d.tick(Seconds(t += kTick), 1.2_V, 0.5_V, Watts(0.0), cycles);
  EXPECT_EQ(mgr.current_state(), EnergyManager::State::kRecovering);
  d.tick(Seconds(t += kTick), 1.2_V, 0.5_V, Watts(0.0), cycles);
  EXPECT_EQ(mgr.current_state(), EnergyManager::State::kTracking);
  t += kTick;
  return plan;
}

TEST(EnergyManagerScripted, PlansEachDistinctSprintOnce) {
  constexpr double kTick = 1.0 / 1024.0;
  const Seconds deadline(8 * kTick);
  // FIFO: five jobs of one (cycles, deadline) ask one question.
  ScriptedPlant plant = sprinting_plant();
  EnergyManager mgr(plant, {});
  Driver d{mgr};
  d.start(1.2_V);
  for (int i = 0; i < 5; ++i) mgr.submit_at({1e6, deadline}, 0.0_ms);
  double t = 0.0, cycles = 0.0;
  for (int i = 0; i < 5; ++i) {
    const SprintPlan plan = run_one_job(mgr, d, t, cycles);
    EXPECT_TRUE(plan.feasible);
    EXPECT_EQ(plan.cycles, 1e6);
    EXPECT_EQ(plan.deadline.value(), deadline.value());
    EXPECT_EQ(plan.slow.vdd.value(), 0.5);
    EXPECT_EQ(plan.fast.frequency.value(), 150e6);
  }
  EXPECT_EQ(mgr.jobs_completed(), 5);
  EXPECT_EQ(plant.plan_calls, 1);

  // Run again: the memo survives on_start, so the rerun asks nothing new,
  // and it reads exactly as a fresh manager's first run does.
  ScriptedPlant fresh_plant = sprinting_plant();
  EnergyManager fresh(fresh_plant, {});
  Driver fd{fresh};
  d.start(1.2_V);
  fd.start(1.2_V);
  EXPECT_EQ(mgr.jobs_completed(), 0);
  mgr.submit_at({1e6, deadline}, 0.0_ms);
  fresh.submit_at({1e6, deadline}, 0.0_ms);
  double t_rerun = 0.0, c_rerun = 0.0, t_fresh = 0.0, c_fresh = 0.0;
  const SprintPlan rerun = run_one_job(mgr, d, t_rerun, c_rerun);
  const SprintPlan first = run_one_job(fresh, fd, t_fresh, c_fresh);
  EXPECT_EQ(plant.plan_calls, 1);
  EXPECT_EQ(fresh_plant.plan_calls, 1);
  EXPECT_EQ(rerun.deadline.value(), first.deadline.value());
  EXPECT_EQ(rerun.slow.vdd.value(), first.slow.vdd.value());
  EXPECT_EQ(mgr.jobs_completed(), fresh.jobs_completed());
  EXPECT_EQ(mgr.jobs_missed(), fresh.jobs_missed());
  EXPECT_EQ(d.cmd.vdd_target.value(), fd.cmd.vdd_target.value());
  EXPECT_EQ(d.cmd.frequency.value(), fd.cmd.frequency.value());
  EXPECT_EQ(d.solves(), 0U);
}

TEST(EnergyManagerScripted, EdfPlansEachDistinctBudgetOnce) {
  // EDF plans against the remaining slack: each job asks with the time it
  // has left, and only a repeat of the last budget hits the memo.
  constexpr double kTick = 1.0 / 1024.0;
  const Seconds deadline(8 * kTick);
  ScriptedPlant plant = sprinting_plant();
  EnergyManagerParams params;
  params.queue_discipline = QueueDiscipline::kEdf;
  EnergyManager mgr(plant, params);
  Driver d{mgr};
  d.start(1.2_V);
  double t = 0.0, cycles = 0.0;
  // Job A starts when submitted; B and C each wait two ticks; D waits one.
  const auto job = [&](double waited) {
    mgr.submit_at({1e6, deadline}, Seconds(t - waited));
    return run_one_job(mgr, d, t, cycles).deadline.value();
  };
  EXPECT_EQ(job(0.0), 8 * kTick);
  EXPECT_EQ(plant.plan_calls, 1);
  EXPECT_EQ(job(2 * kTick), 6 * kTick);
  EXPECT_EQ(plant.plan_calls, 2);
  EXPECT_EQ(job(2 * kTick), 6 * kTick);
  EXPECT_EQ(plant.plan_calls, 2);
  EXPECT_EQ(job(kTick), 7 * kTick);
  EXPECT_EQ(plant.plan_calls, 3);
  EXPECT_EQ(mgr.jobs_completed(), 4);
  EXPECT_EQ(d.solves(), 0U);
}

/// One scripted day of solar-node voltages, 1 ms apart, at a steady load.
/// The completing day falls through the tracker's 1.0 V -> 0.9 V threshold
/// window once; the restless day dips under 1.0 V and recovers over and
/// over, so the timer arms and is abandoned without completing a window.
std::vector<double> window_day() {
  std::vector<double> v(40, 1.2);
  v[10] = v[11] = 0.98;  // arms
  for (std::size_t i = 12; i < v.size(); ++i) v[i] = 0.88;  // completes
  return v;
}
std::vector<double> restless_day() {
  std::vector<double> v(40, 1.2);
  for (std::size_t i = 5; i < v.size(); i += 4) v[i] = 0.98;
  return v;
}

/// Eq. 7 table reads (vmpp, pmpp) over `day` for a manager in `mode`.
std::pair<int, int> table_reads(const std::vector<double>& day, ManagerMode mode,
                                Watts load, bool expect_bypass) {
  ScriptedPlant plant;
  EnergyManagerParams params;
  params.mode = mode;
  EnergyManager mgr(plant, params);
  Driver d{mgr};
  d.start(1.2_V);
  for (std::size_t i = 0; i < day.size(); ++i) {
    d.tick(Seconds(1e-3 * static_cast<double>(i)), Volts(day[i]), 0.5_V, load);
    EXPECT_EQ(mgr.in_bypass(), expect_bypass) << "tick " << i;
  }
  EXPECT_EQ(d.solves(), 0U);
  return {plant.vmpp_reads, plant.pmpp_reads};
}

TEST(EnergyManagerScripted, ReadsEq7TableOnlyWhenAWindowCompletes) {
  // A 2 mW load keeps the light estimate above the 1 mW crossover, a 0.5 mW
  // load holds the node in the low-light bypass.
  const Watts bright(2e-3), dim(0.5e-3);
  using Reads = std::pair<int, int>;
  EXPECT_EQ(table_reads(window_day(), ManagerMode::kMinEnergy, bright, false),
            Reads(0, 0));
  EXPECT_EQ(table_reads(window_day(), ManagerMode::kMaxPerformance, dim, true),
            Reads(0, 0));
  EXPECT_EQ(table_reads(restless_day(), ManagerMode::kMaxPerformance, bright, false),
            Reads(0, 0));
  EXPECT_EQ(table_reads(window_day(), ManagerMode::kMaxPerformance, bright, false),
            Reads(1, 1));
}

TEST(MppTrackerScripted, ReseedPicksHighestLadderLevelWithinBudget) {
  // The node falls through the 1.0 V -> 0.9 V window; the table's 0.5 mW
  // budget at 1 mW per volt admits every level up to 0.5 V.
  ScriptedPlant plant;
  MppTrackingController tracker(plant, MppTrackerParams{});
  Driver d{tracker};
  d.start(1.2_V);
  d.tick(1.0_ms, 0.98_V, 0.5_V, Watts(1e-3));
  d.tick(3.0_ms, 0.88_V, 0.5_V, Watts(1e-3));
  ASSERT_EQ(tracker.retarget_count(), 1);
  EXPECT_EQ(tracker.target_voltage().value(), 0.95);
  // The 48-level ladder spans 0.3 V to the 0.8 V ceiling.
  const double level_18 = 0.3 + (0.8 - 0.3) * 18 / 47;
  const double level_19 = 0.3 + (0.8 - 0.3) * 19 / 47;
  ASSERT_LE(level_18, 0.5);
  ASSERT_GT(level_19, 0.5);
  EXPECT_EQ(d.cmd.vdd_target.value(), level_18);
  EXPECT_EQ(d.cmd.frequency.value(), 100e6 * level_18);
  EXPECT_EQ(d.solves(), 0U);
}

}  // namespace
}  // namespace hemp
