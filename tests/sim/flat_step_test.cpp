// The shared event-step core (sim/flat_step.hpp) and the flattened
// processor constants both event engines feed it.
#include "sim/flat_step.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "common/solver_stats.hpp"
#include "processor/corners.hpp"
#include "sim/flat_model.hpp"

namespace hemp {
namespace {

/// The batch kernel's former hand-copied processor flattening, verbatim
/// (constants inlined): the kernel now calls flat::make_flat_proc on each
/// node's make_test_chip_at processor, which must give the same bits.
flat::FlatProc retired_make_proc_flat(ProcessCorner corner,
                                      double temperature_c) {
  constexpr double kAlpha = 1.05;
  constexpr double kVref = 1.0;
  constexpr double kFref = 1.2e9;
  constexpr double kVthBase = 0.30;
  constexpr double kNearThMargin = 0.06;
  constexpr double kSubSlope = 0.05;
  constexpr double kVminProc = 0.20;
  constexpr double kVmaxProc = 1.2;
  constexpr double kCeff = 45e-12;
  constexpr double kLeakBase = 0.38e-3;
  constexpr double kDibl = 0.4;
  double vth_shift = 0.0;
  double drive_scale = 1.0;
  double leak_scale = 1.0;
  switch (corner) {
    case ProcessCorner::kSlowSlow:
      vth_shift = +0.04;
      drive_scale = 0.85;
      leak_scale = 0.4;
      break;
    case ProcessCorner::kTypical:
      break;
    case ProcessCorner::kFastFast:
      vth_shift = -0.04;
      drive_scale = 1.15;
      leak_scale = 2.5;
      break;
  }
  const double dt = temperature_c - 25.0;
  vth_shift -= 1e-3 * dt;
  leak_scale *= std::exp2(dt / 30.0);

  flat::FlatProc p;
  p.vth = kVthBase + vth_shift;
  p.alpha = kAlpha;
  const double fref = kFref * drive_scale;
  p.gain = fref * kVref / std::pow(kVref - p.vth, kAlpha);
  p.onset = p.vth + kNearThMargin;
  p.f_onset = p.gain * std::pow(p.onset - p.vth, kAlpha) / p.onset;
  p.sub_slope = kSubSlope;
  p.vmin = kVminProc;
  p.vmax = kVmaxProc;
  p.ceff = kCeff;
  p.leak_base = kLeakBase * leak_scale;
  p.dibl = kDibl;
  return p;
}

TEST(FlatProc, TestChipMatchesRetiredBatchCopyBitwise) {
  for (const ProcessCorner corner :
       {ProcessCorner::kSlowSlow, ProcessCorner::kTypical,
        ProcessCorner::kFastFast}) {
    // The fleet samples temperatures clamped to [-20, 85] C; step through
    // the range on a non-round pitch plus both ends.
    for (double temp = -20.0; temp <= 85.0; temp += 3.7) {
      for (const double t : {temp, 85.0}) {
        SCOPED_TRACE(to_string(corner) + " at " + std::to_string(t) + " C");
        const flat::FlatProc got =
            flat::make_flat_proc(make_test_chip_at({corner, t}));
        const flat::FlatProc want = retired_make_proc_flat(corner, t);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof(flat::FlatProc)), 0);
      }
    }
  }
}

/// A running node on a constant sky, `remaining` seconds before the end.
flat::StepCore running_core(const flat::FlatTrace& sky, double remaining) {
  flat::StepCore core;
  core.trace = &sky;
  core.t_end = 1.0;
  core.t = core.t_end - remaining;
  core.can_run = true;
  return core;
}

TEST(StepCore, CeilingLabelsDtCapAndDayEndStaysDeadline) {
  using solver_stats::StepCause;
  const flat::FlatTrace sky = flat::flatten_constant(0.5);

  flat::StepCore core = running_core(sky, 0.1);
  const double running_ceiling = core.open_dt();
  EXPECT_LT(running_ceiling, 0.1);
  EXPECT_EQ(core.step_cause, StepCause::kDtCap);

  // A gated node coasts at the longer ceiling, still labelled as the cap.
  core.can_run = false;
  EXPECT_GT(core.open_dt(), running_ceiling);
  EXPECT_EQ(core.step_cause, StepCause::kDtCap);

  // A controller deadline inside the ceiling takes the label over.
  double dt = core.open_dt();
  core.deadline(dt, core.t + 1e-5);
  EXPECT_EQ(core.step_cause, StepCause::kDeadline);

  // The last step of the interval is the day end, not the ceiling.
  flat::StepCore last = running_core(sky, 1e-5);
  EXPECT_EQ(last.open_dt(), last.t_end - last.t);
  EXPECT_EQ(last.step_cause, StepCause::kDeadline);
}

}  // namespace
}  // namespace hemp
