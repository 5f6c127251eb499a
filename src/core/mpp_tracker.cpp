#include "core/mpp_tracker.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "core/model_plant.hpp"

namespace hemp {

Watts estimate_input_power(Watts p_draw, Farads c, Volts v1, Volts v2, Seconds t) {
  HEMP_CHECK_RANGE(std::isfinite(p_draw.value()),
                   "estimate_input_power: non-finite load power");
  HEMP_CHECK_RANGE(v1 > v2, "estimate_input_power: V1 must exceed V2");
  HEMP_CHECK_RANGE(t.value() > 0.0, "estimate_input_power: non-positive interval");
  HEMP_CHECK_RANGE(c.value() > 0.0, "estimate_input_power: non-positive capacitance");
  const double dv2 = v1.value() * v1.value() - v2.value() * v2.value();
  const double discharge = 0.5 * c.value() * dv2 / t.value();
  return Watts(std::max(p_draw.value() - discharge, 0.0));
}

MppLut::MppLut(const PvCell& cell, Volts measure_voltage, double g_min, double g_max,
               int samples)
    : cell_(cell), measure_voltage_(measure_voltage) {
  HEMP_REQUIRE(samples >= 4, "MppLut: need >= 4 samples");
  HEMP_REQUIRE(0.0 < g_min && g_min < g_max, "MppLut: bad irradiance range");
  double last_p = -1.0;
  for (int i = 0; i < samples; ++i) {
    const double g = g_min + (g_max - g_min) * i / (samples - 1);
    const double p_meas = cell_.power(measure_voltage_, g).value();
    if (p_meas <= last_p) continue;  // keep the power axis strictly increasing
    p_.push_back(p_meas);
    g_.push_back(g);
    last_p = p_meas;
  }
  HEMP_REQUIRE(p_.size() >= 2, "MppLut: cell power not increasing with irradiance");
  // NaN marks an unsolved knot (find_mpp never returns one).
  vmpp_.assign(p_.size(), std::numeric_limits<double>::quiet_NaN());
  pmpp_.assign(p_.size(), std::numeric_limits<double>::quiet_NaN());
}

namespace {

/// Knots a read at `p` interpolates between (lo == hi for a clamped read),
/// chosen as PiecewiseLinear chooses them: clamp at or beyond either end,
/// else the segment std::upper_bound lands in.  A NaN takes neither clamp
/// and upper_bound returns end(), so hi == axis.size(); callers reject it.
struct Segment {
  std::size_t lo;
  std::size_t hi;
};

Segment segment(const std::vector<double>& axis, double p) {
  const std::size_t n = axis.size();
  if (p <= axis.front()) return {0, 0};
  if (p >= axis.back()) return {n - 1, n - 1};
  const auto hi = static_cast<std::size_t>(
      std::upper_bound(axis.begin(), axis.end(), p) - axis.begin());
  return {hi - 1, hi};
}

/// PiecewiseLinear's interpolation, operation for operation, so a lookup
/// returns the eager table's bits.
double blend(const std::vector<double>& axis, const std::vector<double>& ys,
             Segment s, double p) {
  if (s.lo == s.hi) return ys[s.lo];
  const double t = (p - axis[s.lo]) / (axis[s.hi] - axis[s.lo]);
  return ys[s.lo] + t * (ys[s.hi] - ys[s.lo]);
}

}  // namespace

double MppLut::lookup(const std::vector<double>& ys, double p) {
  const Segment s = segment(p_, p);
  if (s.hi >= p_.size() || std::isnan(vmpp_[s.lo]) || std::isnan(vmpp_[s.hi])) {
    // hemp-analyzer: allow(hot-path-purity) — first-touch knot solves, at most one find_mpp per knot per table (a NaN read throws inside)
    solve_knots(s.lo, s.hi);
  }
  return blend(p_, ys, s, p);
}

void MppLut::solve_knots(std::size_t lo, std::size_t hi) {
  HEMP_REQUIRE(hi < p_.size(), "MppLut: NaN input power");
  for (std::size_t k = lo; k <= hi; ++k) {
    if (!std::isnan(vmpp_[k])) continue;
    const MaxPowerPoint point = find_mpp(cell_, g_[k]);
    vmpp_[k] = point.voltage.value();
    pmpp_[k] = point.power.value();
  }
}

Volts MppLut::mpp_voltage_for(Watts p_in) {
  return Volts(lookup(vmpp_, p_in.value()));
}

double MppLut::irradiance_for(Watts p_in) const {
  const Segment s = segment(p_, p_in.value());
  HEMP_REQUIRE(s.hi < p_.size(), "MppLut: NaN input power");
  return blend(p_, g_, s, p_in.value());
}

Watts MppLut::mpp_power_for(Watts p_in) {
  return Watts(lookup(pmpp_, p_in.value()));
}

void MppTrackerParams::validate() const {
  HEMP_REQUIRE(control_period.value() > 0.0, "MppTracker: bad control period");
  HEMP_REQUIRE(deadband.value() > 0.0, "MppTracker: bad deadband");
  HEMP_REQUIRE(v_high > v_low, "MppTracker: v_high must exceed v_low");
  HEMP_REQUIRE(solar_capacitance.value() > 0.0, "MppTracker: bad capacitance");
  HEMP_REQUIRE(dvfs_steps >= 4, "MppTracker: need >= 4 DVFS steps");
}

namespace {

DvfsLadder make_ladder(const ControlPlant& plant, Volts ceiling, int steps) {
  const double lo = plant.min_voltage().value();
  const double hi = std::min(ceiling.value(), plant.max_voltage().value());
  HEMP_REQUIRE(hi > lo, "MppTracker: empty DVFS range");
  std::vector<OperatingPoint> levels;
  levels.reserve(static_cast<std::size_t>(steps));
  for (int i = 0; i < steps; ++i) {
    const Volts v(lo + (hi - lo) * i / (steps - 1));
    levels.push_back({v, plant.max_frequency(v)});
  }
  return DvfsLadder(std::move(levels));
}

}  // namespace

MppTrackingController::MppTrackingController(const SystemModel& model,
                                             const MppTrackerParams& params)
    : MppTrackingController(std::make_unique<ModelPlant>(model, params), params) {}

MppTrackingController::MppTrackingController(std::unique_ptr<ControlPlant> owned,
                                             const MppTrackerParams& params)
    : MppTrackingController(*owned, params) {
  owned_plant_ = std::move(owned);
}

MppTrackingController::MppTrackingController(ControlPlant& plant,
                                             const MppTrackerParams& params)
    : plant_(&plant), params_(params),
      ladder_(make_ladder(plant, params.vdd_ceiling, params.dvfs_steps)),
      timer_(params.v_high, params.v_low) {
  params_.validate();
  v_mpp_full_sun_ = plant.full_sun_mpp().voltage;
}

void MppTrackingController::on_start(const SocState& state, SocCommand& cmd) {
  // Cold start: assume strong light (track toward the full-sun MPP) and begin
  // at a low ladder level; the proportional loop climbs as the node proves it
  // can hold the target.  The first dimming transient re-seeds via Eq. 7.
  // Every per-run field restarts at its constructed value, so a controller
  // run twice behaves as a fresh one; the lookup table's knots are kept.
  v_target_ = v_mpp_full_sun_;
  timer_.reset(state.v_solar);
  level_ = 0;
  prev_v_solar_ = Volts(0.0);
  next_control_ = Seconds(0.0);
  last_estimate_.reset();
  retargets_ = 0;
  cmd.path = PowerPath::kRegulated;
  cmd.run = true;
  step(0, cmd);
}

void MppTrackingController::step(int delta, SocCommand& cmd) {
  const long next = static_cast<long>(level_) + delta;
  level_ = static_cast<std::size_t>(
      std::clamp<long>(next, 0, static_cast<long>(ladder_.size()) - 1));
  const OperatingPoint& op = ladder_.at(level_);
  cmd.vdd_target = op.vdd;
  cmd.frequency = op.frequency;
}

void MppTrackingController::seed_for_budget(Watts p_budget, const SocState& state,
                                            SocCommand& cmd) {
  // Highest ladder level whose source-side draw fits the budget.
  std::size_t chosen = 0;
  for (std::size_t i = 0; i < ladder_.size(); ++i) {
    const OperatingPoint& op = ladder_.at(i);
    if (!plant_->supports(state.v_solar, op.vdd)) continue;
    const Watts pout = plant_->max_power(op.vdd);
    const double eta = plant_->efficiency(state.v_solar, op.vdd, pout);
    if (eta <= 0.0) continue;
    if (pout.value() / eta <= p_budget.value()) chosen = i;
  }
  level_ = chosen;
  const OperatingPoint& op = ladder_.at(level_);
  cmd.vdd_target = op.vdd;
  cmd.frequency = op.frequency;
}

HEMP_HOT void MppTrackingController::on_tick(const SocState& state, SocCommand& cmd) {
  // --- Eq. 7 transient estimator. --------------------------------------------
  if (auto fall = timer_.update(state.v_solar, state.time);
      fall && fall->value() > 0.0) {
    double p_draw = state.p_processor.value();
    if (plant_->supports(state.v_solar, cmd.vdd_target) && p_draw > 0.0) {
      const double eta = plant_->efficiency(state.v_solar, cmd.vdd_target,
                                            Watts(p_draw));
      if (eta > 0.0) p_draw /= eta;
    }
    const Watts p_in = estimate_input_power(Watts(p_draw), params_.solar_capacitance,
                                            params_.v_high, params_.v_low, *fall);
    last_estimate_ = p_in;
    v_target_ = plant_->mpp_voltage_for(p_in);
    seed_for_budget(plant_->mpp_power_for(p_in), state, cmd);
    ++retargets_;
    next_control_ = state.time + params_.control_period;
    return;
  }

  // --- Steady-state proportional ladder stepping. ----------------------------
  // Hold DVFS while a threshold-time measurement is in flight: Eq. 7 assumes
  // a constant load across the V1 -> V2 window.
  if (timer_.armed()) return;
  if (state.time < next_control_) return;
  next_control_ = state.time + params_.control_period;
  const double err = state.v_solar.value() - v_target_.value();
  const double dv = state.v_solar.value() - prev_v_solar_.value();
  prev_v_solar_ = state.v_solar;
  if (const int delta = po_ladder_step(params_, err, dv)) step(delta, cmd);
}

void MppTrackingController::step_hint(const SocState& state, SocStepHint& hint) const {
  (void)state;
  hint.event_driven = true;
  // Eq. 7 threshold timer: the node must not cross either window edge
  // unobserved, in either direction.
  hint.watch_solar(params_.v_high.value());
  hint.watch_solar(params_.v_low.value());
  // While a fall-time measurement is in flight DVFS is held, so the watched
  // edges are the only wake-ups; otherwise the proportional loop runs on its
  // control period.
  if (!timer_.armed()) hint.deadline(next_control_.value());
}

}  // namespace hemp
