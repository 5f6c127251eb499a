// Time-based maximum-power-point tracking (paper Sec. VI-A, Eqs. 6-7, Fig. 8).
//
// Instead of sensing current, the scheme measures how long the solar-node
// voltage takes to fall between two comparator thresholds while the load is
// known.  From the capacitor energy balance over that interval,
//
//   (P_draw - P_in) * t = C * (V1^2 - V2^2) / 2
//   =>  P_in = P_draw - C * (V1^2 - V2^2) / (2 t)                      (Eq. 7)
//
// the incoming solar power follows directly.  A lookup table built offline
// from the cell's I-V family maps the estimated input power to the new MPP
// voltage, and DVFS retargets the load to hold the node there.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "core/control_plant.hpp"
#include "core/system_model.hpp"
#include "processor/processor.hpp"
#include "sim/soc_system.hpp"
#include "storage/capacitor.hpp"
#include "storage/comparator.hpp"

namespace hemp {

/// Eq. 7: input power from a measured V1 -> V2 fall time under load `p_draw`.
Watts estimate_input_power(Watts p_draw, Farads c, Volts v1, Volts v2, Seconds t);

/// MppLut's default irradiance sampling, shared with the batch kernel's
/// surrogate table so the two tables sample the same irradiance knots.
inline constexpr int kMppLutSamples = 48;
inline constexpr double kMppLutGMin = 0.02;
inline constexpr double kMppLutGMax = 1.2;

/// Lookup table from measured input power to the MPP voltage, built from the
/// cell's I-V family.
///
/// The power axis is sampled in the constructor; each knot's exact MPP
/// (vmpp, pmpp) is solved the first time a lookup reads that knot, so a
/// controller pays only for the light levels its run visits.  Every lookup
/// returns the bits an eagerly built PiecewiseLinear table would.  The memo
/// makes the MPP lookups non-const: one table belongs to one ModelPlant.
class MppLut {
 public:
  /// Sample the cell's I-V family across irradiance [g_min, g_max]; the
  /// "measured power" axis is the cell output at `measure_voltage` (the
  /// midpoint of the comparator window, where Eq. 7's estimate applies).
  /// Samples whose power does not rise above the previous kept one are
  /// dropped, so the axis is strictly increasing.
  MppLut(const PvCell& cell, Volts measure_voltage, double g_min = kMppLutGMin,
         double g_max = kMppLutGMax, int samples = kMppLutSamples);

  /// MPP voltage for an estimated input power (clamped to the table range).
  /// Throws ModelError on a NaN power.
  [[nodiscard]] Volts mpp_voltage_for(Watts p_in);
  /// Estimated irradiance for an input power (diagnostics / tests).
  [[nodiscard]] double irradiance_for(Watts p_in) const;
  /// Available MPP power for an estimated input power.
  [[nodiscard]] Watts mpp_power_for(Watts p_in);

  [[nodiscard]] Volts measure_voltage() const { return measure_voltage_; }

 private:
  /// Value of `ys` (vmpp_ or pmpp_) at `p`, solving the knots it reads first.
  [[nodiscard]] double lookup(const std::vector<double>& ys, double p);
  /// Solve knots lo..hi that are not solved yet; hi == size() is a NaN read.
  void solve_knots(std::size_t lo, std::size_t hi);

  PvCell cell_;
  Volts measure_voltage_;
  std::vector<double> p_;     ///< measured power per knot, strictly increasing
  std::vector<double> g_;     ///< irradiance per knot
  std::vector<double> vmpp_;  ///< MPP voltage per knot; NaN until solved
  std::vector<double> pmpp_;  ///< MPP power per knot; NaN until solved
};

struct MppTrackerParams {
  /// How often the DVFS loop nudges the operating point.
  Seconds control_period{500e-6};
  /// Solar-node voltage error tolerated before stepping DVFS.
  Volts deadband{0.02};
  /// Slew tolerance for derivative damping: when the node is already moving
  /// toward the target faster than this per control period, hold the ladder
  /// (the node integrates power imbalance, so stepping while it slews causes
  /// limit cycling).
  Volts slew_tolerance{0.002};
  /// Threshold-timer window (paper Fig. 8's V1 and V2).
  Volts v_high{1.0};
  Volts v_low{0.9};
  /// Must match the SoC's solar storage cap (Eq. 7's C).
  Farads solar_capacitance = kSolarNodeCapacitance;
  /// Number of DVFS ladder steps.
  int dvfs_steps = 48;
  /// Highest Vdd the ladder uses (stays inside the regulator envelope).
  Volts vdd_ceiling{0.8};

  void validate() const;
  /// Midpoint of the timer window, where Eq. 7's estimate applies: the
  /// voltage Eq. 7's table measures the cell's power at.
  [[nodiscard]] Volts measure_voltage() const {
    return Volts(0.5 * (v_high.value() + v_low.value()));
  }
};

/// The steady-state P&O rule, shared by the MPP tracker and the fractional-Voc
/// baseline: +1 (draw more) when the solar node sits more than `deadband`
/// above its target (`err` = v_solar - target) and is not already falling
/// faster than `slew_tolerance`, -1 (back off) when below it and not already
/// recovering that fast, else 0 (hold).  `dv` is the node's move since the
/// last control period.
[[nodiscard]] inline int po_ladder_step(Volts deadband, Volts slew_tolerance,
                                        double err, double dv) {
  const double slew = slew_tolerance.value();
  if (err > deadband.value() && dv > -slew) return +1;
  if (err < -deadband.value() && dv < slew) return -1;
  return 0;
}

/// Runtime MPP-tracking DVFS controller.
///
/// Steady state: proportional ladder stepping keeps the solar node at the MPP
/// voltage (drawing more pulls the node down, drawing less lets it rise).
/// Transient: when the light collapses, the node falls through the timer
/// window; Eq. 7 estimates the new input power; the LUT yields the new MPP
/// target and the ladder is re-seeded near the sustainable level.
///
/// Every physics read goes through a ControlPlant: the ladder's envelope,
/// the regulator, Eq. 7's table and the full-sun MPP.
class MppTrackingController : public SocController {
 public:
  /// Tracks on its own ModelPlant over `model`.
  MppTrackingController(const SystemModel& model, const MppTrackerParams& params);
  /// Tracks on `plant`, which must outlive the controller.
  MppTrackingController(ControlPlant& plant, const MppTrackerParams& params);

  void on_start(const SocState& state, SocCommand& cmd) override;
  void on_tick(const SocState& state, SocCommand& cmd) override;
  void step_hint(const SocState& state, SocStepHint& hint) const override;

  [[nodiscard]] Volts target_voltage() const { return v_target_; }
  [[nodiscard]] std::optional<Watts> last_power_estimate() const {
    return last_estimate_;
  }
  [[nodiscard]] int retarget_count() const { return retargets_; }
  /// Read-only run state, read by EnergyManager::step_hint: the manager
  /// bounds the tracker's steps by the window comparators' next toggle
  /// levels and keeps the control deadline while the timer is armed, where
  /// this controller's own step_hint does neither (DESIGN.md Sec. 6m).
  [[nodiscard]] const ThresholdTimer& timer() const { return timer_; }
  [[nodiscard]] Seconds next_control() const { return next_control_; }

 private:
  MppTrackingController(std::unique_ptr<ControlPlant> owned,
                        const MppTrackerParams& params);

  /// Step the DVFS ladder: positive = draw more power (higher level).
  void step(int delta, SocCommand& cmd);
  /// Seed the ladder at the level whose source draw best matches `p_budget`.
  void seed_for_budget(Watts p_budget, const SocState& state, SocCommand& cmd);

  std::unique_ptr<ControlPlant> owned_plant_;  ///< set by the model constructor
  ControlPlant* plant_;
  MppTrackerParams params_;
  DvfsLadder ladder_;
  ThresholdTimer timer_;
  /// Cold-start MPP target, solved once at construction so on_start (and the
  /// stepped fast path) never runs the exact MPP solver.
  Volts v_mpp_full_sun_{0.0};
  std::size_t level_ = 0;
  Volts v_target_{0.0};
  Volts prev_v_solar_{0.0};
  Seconds next_control_{0.0};
  std::optional<Watts> last_estimate_;
  int retargets_ = 0;
};

}  // namespace hemp
