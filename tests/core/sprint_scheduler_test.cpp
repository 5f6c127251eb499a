#include "core/sprint_scheduler.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/error.hpp"
#include "imgproc/pipeline.hpp"
#include "regulator/buck.hpp"
#include "sim/soc_system.hpp"

namespace hemp {
namespace {

using namespace hemp::literals;

struct Fixture {
  PvCell cell = make_ixys_kxob22_cell();
  BuckRegulator reg;  // the test chip pairs the buck with the core (Sec. VII)
  Processor proc = Processor::make_test_chip();
  SystemModel model{cell, reg, proc};
  SprintScheduler scheduler{model};

  SocSystem make_soc() {
    SocConfig cfg;
    return SocSystem(cfg, std::make_unique<BuckRegulator>(),
                     Processor::make_test_chip());
  }
};

TEST(SprintScheduler, RequiredEnergyFallsWithMoreTime) {
  // Eq. 10: relaxing the deadline lowers Vdd and the energy bill.
  Fixture f;
  const double cycles = 5e6;
  const double e_fast = f.scheduler.required_source_energy(cycles, 8.0_ms, 1.0).value();
  const double e_slow = f.scheduler.required_source_energy(cycles, 16.0_ms, 1.0).value();
  EXPECT_GT(e_fast, e_slow);
}

TEST(SprintScheduler, ImpossibleDeadlineIsInfinite) {
  Fixture f;
  // 1e9 cycles in 1 ms needs a 1 THz clock.
  EXPECT_TRUE(std::isinf(
      f.scheduler.required_source_energy(1e9, 1.0_ms, 1.0).value()));
}

TEST(SprintScheduler, AvailableEnergyGrowsLinearly) {
  // Eq. 11: solar contribution scales with time on top of the cap energy.
  Fixture f;
  const Joules cap = 20.0_uJ;
  const double e1 = f.scheduler.available_energy(10.0_ms, 1.0, cap).value();
  const double e2 = f.scheduler.available_energy(20.0_ms, 1.0, cap).value();
  const double p_mpp = f.model.mpp(1.0).power.value();
  EXPECT_NEAR(e2 - e1, p_mpp * 10e-3, 1e-9);
}

TEST(SprintScheduler, MinCompletionTimeIsIntersection) {
  // Fig. 9a: at the returned time, need == supply; a tighter deadline fails.
  Fixture f;
  const double cycles = 8e6;
  const Joules cap = 25.0_uJ;
  const auto t = f.scheduler.min_completion_time(cycles, 1.0, cap);
  ASSERT_TRUE(t.has_value());
  const double need = f.scheduler.required_source_energy(cycles, *t, 1.0).value();
  const double have = f.scheduler.available_energy(*t, 1.0, cap).value();
  EXPECT_NEAR(need / have, 1.0, 1e-3);
  const Seconds tighter(t->value() * 0.9);
  EXPECT_GT(f.scheduler.required_source_energy(cycles, tighter, 1.0).value(),
            f.scheduler.available_energy(tighter, 1.0, cap).value());
}

TEST(SprintScheduler, MinCompletionTimeInfeasibleJob) {
  Fixture f;
  EXPECT_FALSE(
      f.scheduler.min_completion_time(1e12, 1.0, 0.0_uJ, 10.0_ms).has_value());
}

TEST(SprintScheduler, MoreCapEnergyAllowsFasterCompletion) {
  Fixture f;
  const double cycles = 8e6;
  const auto t_poor = f.scheduler.min_completion_time(cycles, 1.0, 5.0_uJ);
  const auto t_rich = f.scheduler.min_completion_time(cycles, 1.0, 50.0_uJ);
  ASSERT_TRUE(t_poor.has_value());
  ASSERT_TRUE(t_rich.has_value());
  EXPECT_LT(t_rich->value(), t_poor->value());
}

TEST(SprintScheduler, PlanGeometryMatchesSprintFactor) {
  Fixture f;
  const SprintPlan p = f.scheduler.plan(9.65e6, 15.0_ms, 0.2);
  ASSERT_TRUE(p.feasible);
  EXPECT_NEAR(p.phase_time.value(), 7.5e-3, 1e-12);
  const double f_nom = 9.65e6 / 15e-3;
  EXPECT_NEAR(p.nominal.frequency.value(), f_nom, 1.0);
  EXPECT_NEAR(p.slow.frequency.value(), 0.8 * f_nom, 1.0);
  EXPECT_NEAR(p.fast.frequency.value(), 1.2 * f_nom, 1.0);
  // Two halves retire exactly the job.
  const double cycles = p.slow.frequency.value() * p.phase_time.value() +
                        p.fast.frequency.value() * p.phase_time.value();
  EXPECT_NEAR(cycles, 9.65e6, 10.0);
}

TEST(SprintScheduler, PlanVoltagesTrackFrequencies) {
  Fixture f;
  const SprintPlan p = f.scheduler.plan(9.65e6, 15.0_ms, 0.2);
  EXPECT_LT(p.slow.vdd.value(), p.nominal.vdd.value());
  EXPECT_GT(p.fast.vdd.value(), p.nominal.vdd.value());
  EXPECT_NEAR(f.proc.max_frequency(p.fast.vdd).value(), p.fast.frequency.value(),
              p.fast.frequency.value() * 1e-6);
}

TEST(SprintScheduler, PlanInfeasibleWhenSprintExceedsEnvelope) {
  Fixture f;
  // Nominal at the top of the envelope: +20% sprint cannot be sustained.
  const Hertz f_top = f.proc.max_frequency(f.proc.max_voltage());
  const double cycles = f_top.value() * 10e-3;
  const SprintPlan p = f.scheduler.plan(cycles, 10.0_ms, 0.2);
  EXPECT_FALSE(p.feasible);
}

TEST(SprintScheduler, PlanValidation) {
  Fixture f;
  EXPECT_THROW((void)f.scheduler.plan(0.0, 10.0_ms, 0.2), RangeError);
  EXPECT_THROW((void)f.scheduler.plan(1e6, Seconds(0.0), 0.2), RangeError);
  EXPECT_THROW((void)f.scheduler.plan(1e6, 10.0_ms, 0.8), RangeError);
}

TEST(SprintScheduler, SprintingHarvestsMoreSolarEnergy) {
  // Eqs. 12-13 / Fig. 9b: when demand exceeds supply in both phases (node
  // monotonically discharging), slow-then-fast keeps the solar node in the
  // high-power region longer and extracts more energy than constant speed;
  // the paper quotes <= ~10%.
  Fixture f;
  const double g = 0.5;
  const SprintPlan p = f.scheduler.plan(1.5e6, 2.0_ms, 0.2);
  ASSERT_TRUE(p.feasible);
  const auto gain =
      f.scheduler.evaluate_gain(p, g, 47.0_uF, find_mpp(f.cell, g).voltage);
  EXPECT_GT(gain.extra_solar_fraction, 0.0);
  EXPECT_LT(gain.extra_solar_fraction, 0.15);
}

TEST(SprintScheduler, ZeroSprintFactorHasNoGain) {
  Fixture f;
  const SprintPlan p = f.scheduler.plan(1.5e6, 2.0_ms, 0.0);
  ASSERT_TRUE(p.feasible);
  const auto gain = f.scheduler.evaluate_gain(p, 0.5, 47.0_uF, 1.1_V);
  EXPECT_NEAR(gain.extra_solar_fraction, 0.0, 1e-9);
}

TEST(SprintScheduler, OverSprintingBackfires) {
  // Too-aggressive sprint factors crash the node in the fast phase and lose
  // energy overall (the Fig. 9b sweep's falling tail).
  Fixture f;
  const double g = 0.5;
  const Volts v0 = find_mpp(f.cell, g).voltage;
  const SprintPlan mild = f.scheduler.plan(1.5e6, 2.0_ms, 0.1);
  const SprintPlan wild = f.scheduler.plan(1.5e6, 2.0_ms, 0.4);
  ASSERT_TRUE(mild.feasible);
  ASSERT_TRUE(wild.feasible);
  EXPECT_GT(f.scheduler.evaluate_gain(mild, g, 47.0_uF, v0).extra_solar_fraction,
            f.scheduler.evaluate_gain(wild, g, 47.0_uF, v0).extra_solar_fraction);
}

TEST(SprintController, CompletesJobUnderDeadline) {
  Fixture f;
  const double cycles = 4e6;
  const SprintPlan plan = f.scheduler.plan(cycles, 10.0_ms, 0.2);
  ASSERT_TRUE(plan.feasible);
  SprintController ctrl(f.model, plan);
  SocSystem soc = f.make_soc();
  const SimResult r = soc.run(IrradianceTrace::constant(1.0), ctrl, 20.0_ms);
  EXPECT_TRUE(ctrl.job_done());
  ASSERT_TRUE(ctrl.completion_time().has_value());
  EXPECT_LE(ctrl.completion_time()->value(), 10.5e-3);
  EXPECT_GE(r.totals.cycles, cycles);
}

TEST(SprintController, BypassExtendsOperationUnderDimming) {
  // Fig. 11b: as the light dies mid-job, bypassing the regulator extends
  // operation relative to regulator-only.
  Fixture f;
  const double cycles = 9.65e6;
  const SprintPlan plan = f.scheduler.plan(cycles, 16.0_ms, 0.2);
  ASSERT_TRUE(plan.feasible);

  const auto dimming = IrradianceTrace::step(1.0, 0.0, 2.0_ms);

  SprintController with_bypass(f.model, plan, /*enable_bypass=*/true);
  SocSystem soc1 = f.make_soc();
  const SimResult r1 = soc1.run(dimming, with_bypass, 40.0_ms);

  SprintController without_bypass(f.model, plan, /*enable_bypass=*/false);
  SocSystem soc2 = f.make_soc();
  const SimResult r2 = soc2.run(dimming, without_bypass, 40.0_ms);

  EXPECT_TRUE(with_bypass.bypass_engaged());
  EXPECT_GT(r1.totals.cycles, r2.totals.cycles * 1.05);
}

TEST(SprintController, BypassClocksAtEnvelopeTopAboveVmax) {
  // In bypass the rail is the raw cell node, which strong sun can push above
  // Vmax; the controller clocks at the envelope's top there instead of
  // asking the speed model for a frequency outside its envelope.
  Fixture f;
  const SprintPlan plan = f.scheduler.plan(4e6, 10.0_ms, 0.2);
  ASSERT_TRUE(plan.feasible);
  SprintController ctrl(f.model, plan);
  SocCommand cmd;
  SocState state;
  ctrl.on_start(state, cmd);
  state.time = 1.0_ms;
  state.v_solar = 0.0_V;  // no regulator headroom: engage the bypass
  state.v_dd = plan.slow.vdd;
  ctrl.on_tick(state, cmd);
  ASSERT_TRUE(ctrl.bypass_engaged());

  state.time = 2.0_ms;
  state.v_dd = f.proc.max_voltage() + 0.3_V;
  ASSERT_NO_THROW(ctrl.on_tick(state, cmd));
  EXPECT_EQ(cmd.frequency.value(),
            f.proc.max_frequency(f.proc.max_voltage()).value());
}

// The transients behind Figs. 9b and 11b, as their benches run them, pinned
// to the bit: cycles retired, energy harvested and the bypass instant.  The
// values were recorded on x86-64 (SSE2 doubles, no FMA contraction) with
// glibc's libm; a target that fuses multiply-adds needs its own pins.
#if defined(__x86_64__) && !defined(__FMA__)
constexpr bool kPinnedTarget = true;
#else
constexpr bool kPinnedTarget = false;
#endif

struct TransientPin {
  const char* what;
  std::uint64_t cycles;
  std::uint64_t harvested;
  std::uint64_t bypass_time;  ///< 0 when the bypass never engaged
};

void expect_transient(Fixture& f, const SprintPlan& plan,
                      const IrradianceTrace& trace, Seconds t_end, bool bypass,
                      const TransientPin& pin) {
  SCOPED_TRACE(pin.what);
  SprintController ctrl(f.model, plan, bypass);
  SocSystem soc = f.make_soc();
  const SimResult r = soc.run(trace, ctrl, t_end);
  const std::uint64_t cycles = std::bit_cast<std::uint64_t>(r.totals.cycles);
  const std::uint64_t harvested =
      std::bit_cast<std::uint64_t>(r.totals.harvested.value());
  const std::uint64_t bypass_time =
      ctrl.bypass_time() ? std::bit_cast<std::uint64_t>(ctrl.bypass_time()->value())
                         : 0;
  EXPECT_EQ(cycles, pin.cycles);
  EXPECT_EQ(harvested, pin.harvested);
  EXPECT_EQ(bypass_time, pin.bypass_time);
}

TEST(SprintController, FigureTransientsHoldTheirBits) {
  if (!kPinnedTarget) GTEST_SKIP() << "bits are recorded for x86-64 without FMA";
  Fixture f;
  // Fig. 9b: a 16 ms job, light stepped to darkness at 2 ms.
  const SprintPlan plan_9b = f.scheduler.plan(9.65e6, 16.0_ms, 0.2);
  const auto step = IrradianceTrace::step(1.0, 0.0, 2.0_ms);
  expect_transient(f, plan_9b, step, 40.0_ms, true,
                   {"9b with bypass", 0x414b4d1ff9d78e90ULL,
                    0x3efe2abc1014e298ULL, 0x3f7290257c914ae0ULL});
  expect_transient(f, plan_9b, step, 40.0_ms, false,
                   {"9b regulator only", 0x414161c66469ce2bULL,
                    0x3efe2abc1014e298ULL, 0});

  // Fig. 11b: one 64x64 recognition frame by 14 ms, light ramped to darkness
  // over 0.5-6 ms.
  const double frame =
      RecognitionPipeline::make_test_chip_pipeline().frame_cycles(64, 64);
  const SprintPlan sprint = f.scheduler.plan(frame, 14.0_ms, 0.2);
  const SprintPlan constant = f.scheduler.plan(frame, 14.0_ms, 0.0);
  const auto ramp = IrradianceTrace::ramp(1.0, 0.0, 0.5_ms, 6.0_ms);
  expect_transient(f, sprint, ramp, 60.0_ms, true,
                   {"11b sprint + bypass", 0x4151a903647545f7ULL,
                    0x3f0a40cfec6744c4ULL, 0x3f77e77d523b36c8ULL});
  expect_transient(f, constant, ramp, 60.0_ms, true,
                   {"11b constant + bypass", 0x41507a9f654dc361ULL,
                    0x3f0a7aecfb3ee29cULL, 0x3f6e3a7daa4fc941ULL});
  expect_transient(f, sprint, ramp, 60.0_ms, false,
                   {"11b sprint, no bypass", 0x414990b7c50c0829ULL,
                    0x3f0a401cc6743733ULL, 0});
}

TEST(SprintController, RerunMatchesAFreshRun) {
  // on_start begins a fresh sprint: a run after a bypassed one starts
  // regulated again, with no bypass or completion time carried over.
  Fixture f;
  const SprintPlan plan = f.scheduler.plan(9.65e6, 16.0_ms, 0.2);
  const auto dimming = IrradianceTrace::step(1.0, 0.0, 2.0_ms);
  SprintController ctrl(f.model, plan);
  SocSystem soc = f.make_soc();
  const SimResult first = soc.run(dimming, ctrl, 40.0_ms);
  const std::optional<Seconds> first_bypass = ctrl.bypass_time();
  ASSERT_TRUE(first_bypass.has_value());
  const SimResult second = soc.run(dimming, ctrl, 40.0_ms);
  EXPECT_EQ(second.totals.cycles, first.totals.cycles);
  ASSERT_TRUE(ctrl.bypass_time().has_value());
  EXPECT_EQ(ctrl.bypass_time()->value(), first_bypass->value());
}

TEST(SprintController, RejectsInfeasiblePlan) {
  Fixture f;
  SprintPlan bad;  // default: feasible = false
  EXPECT_THROW(SprintController(f.model, bad), ModelError);
}

}  // namespace
}  // namespace hemp
