#include "core/sprint_scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "core/model_plant.hpp"

namespace hemp {

SprintScheduler::SprintScheduler(const SystemModel& model) : model_(&model) {}

Joules SprintScheduler::required_source_energy(double cycles, Seconds t,
                                               double g) const {
  HEMP_CHECK_RANGE(cycles > 0.0, "SprintScheduler: non-positive cycle count");
  HEMP_CHECK_RANGE(t.value() > 0.0, "SprintScheduler: non-positive time");
  const Processor& proc = model_->processor();
  const Hertz f_needed(cycles / t.value());
  const Hertz f_ceiling = proc.max_frequency(proc.max_voltage());
  if (f_needed > f_ceiling) {
    return Joules(std::numeric_limits<double>::infinity());
  }
  const Volts vdd = proc.speed().voltage_for_frequency(f_needed);
  const Joules rail = Joules(proc.energy_per_cycle({vdd, f_needed}).value() * cycles);
  // Through the regulator from the MPP input rail.
  const MaxPowerPoint point = model_->mpp(g);
  const Regulator& reg = model_->regulator();
  if (!reg.supports(point.voltage, vdd)) {
    return Joules(std::numeric_limits<double>::infinity());
  }
  const Watts load = proc.power_model().total_power(vdd, f_needed);
  const double eta = reg.efficiency(point.voltage, vdd, load);
  if (eta <= 0.0) return Joules(std::numeric_limits<double>::infinity());
  return Joules(rail.value() / eta);
}

Joules SprintScheduler::available_energy(Seconds t, double g,
                                         Joules usable_cap_energy) const {
  HEMP_CHECK_RANGE(t.value() >= 0.0, "SprintScheduler: negative time");
  HEMP_CHECK_RANGE(usable_cap_energy.value() >= 0.0,
                   "SprintScheduler: negative capacitor energy");
  return model_->mpp(g).power * t + usable_cap_energy;
}

std::optional<Seconds> SprintScheduler::min_completion_time(
    double cycles, double g, Joules usable_cap_energy, Seconds t_max) const {
  auto gap = [&](double t) {
    const double need = required_source_energy(cycles, Seconds(t), g).value();
    if (!std::isfinite(need)) return -1.0;
    return available_energy(Seconds(t), g, usable_cap_energy).value() - need;
  };
  // The feasible band is bounded on both sides: too-fast completion exceeds
  // the frequency ceiling, too-slow completion pushes Vdd below the
  // regulator's output range (need reads as infinite at both ends).  Scan up
  // from the frequency-limited lower bound for the first feasible time, then
  // bisect across the sign change.
  const Hertz f_ceiling =
      model_->processor().max_frequency(model_->processor().max_voltage());
  const double t_min = cycles / f_ceiling.value();
  if (t_min > t_max.value()) return std::nullopt;
  if (gap(t_min) >= 0.0) return Seconds(t_min);
  constexpr int kGrid = 256;
  double prev = t_min;
  for (int i = 1; i <= kGrid; ++i) {
    const double t = t_min + (t_max.value() - t_min) * i / kGrid;
    if (gap(t) >= 0.0) {
      return Seconds(numeric::bisect_root(gap, prev, t, {.x_tol = 1e-9}));
    }
    prev = t;
  }
  return std::nullopt;
}

SprintPlan SprintScheduler::plan(double cycles, Seconds deadline, double s) const {
  return plan(model_->processor(), cycles, deadline, s);
}

SprintPlan SprintScheduler::plan(const Processor& proc, double cycles,
                                 Seconds deadline, double s) {
  HEMP_CHECK_RANGE(cycles > 0.0, "SprintScheduler: non-positive cycle count");
  HEMP_CHECK_RANGE(deadline.value() > 0.0, "SprintScheduler: non-positive deadline");
  HEMP_CHECK_RANGE(s >= 0.0 && s <= 0.5, "SprintScheduler: sprint factor in [0, 0.5]");

  SprintPlan p;
  p.cycles = cycles;
  p.deadline = deadline;
  p.sprint_factor = s;
  p.phase_time = deadline / 2.0;

  const Hertz f_nom(cycles / deadline.value());
  const Hertz f_slow(f_nom.value() * (1.0 - s));
  const Hertz f_fast(f_nom.value() * (1.0 + s));
  const Hertz f_ceiling = proc.max_frequency(proc.max_voltage());
  if (f_fast > f_ceiling) return p;  // cannot sprint that hard
  const Hertz f_floor = proc.max_frequency(proc.min_voltage());
  if (f_slow.value() <= 0.0) return p;

  auto op_for = [&](Hertz f) -> OperatingPoint {
    if (f <= f_floor) return {proc.min_voltage(), f};
    const Volts v = proc.speed().voltage_for_frequency(f);
    return {v, f};
  };
  p.nominal = op_for(f_nom);
  p.slow = op_for(f_slow);
  p.fast = op_for(f_fast);
  p.feasible = true;
  return p;
}

SprintScheduler::GainEstimate SprintScheduler::evaluate_gain(const SprintPlan& plan,
                                                             double g,
                                                             Farads c_solar,
                                                             Volts v_start) const {
  HEMP_REQUIRE(plan.feasible, "SprintScheduler: evaluating an infeasible plan");
  const PvCell& cell = model_->cell();
  const Processor& proc = model_->processor();
  const Regulator& reg = model_->regulator();

  // Paper Sec. VI-B assumption: "in the case of switching regulator, [it] can
  // be assumed to have relatively constant efficiency over the operation
  // range" — so the draw follows the speed profile at a fixed eta, evaluated
  // at the nominal operating point, and continues while the node has charge.
  double eta_nom = 1.0;
  if (reg.supports(v_start, plan.nominal.vdd)) {
    const Watts pout_nom =
        proc.power_model().total_power(plan.nominal.vdd, plan.nominal.frequency);
    const double eta = reg.efficiency(v_start, plan.nominal.vdd, pout_nom);
    if (eta > 0.0) eta_nom = eta;
  }

  // Integrate the solar node under a speed profile; the regulator holds the
  // rail so the node only sees the source-side draw.
  auto integrate = [&](const OperatingPoint& first, const OperatingPoint& second)
      -> std::pair<Joules, Volts> {
    const double dt = plan.deadline.value() / 4000.0;
    double v = v_start.value();
    double harvested = 0.0;
    for (double t = 0.0; t < plan.deadline.value(); t += dt) {
      const OperatingPoint& op = t < plan.phase_time.value() ? first : second;
      const double p_harv = cell.power(Volts(v), g).value();
      double p_draw = 0.0;
      if (v > 0.05) {
        const Watts pout = proc.power_model().total_power(op.vdd, op.frequency);
        p_draw = pout.value() / eta_nom;
      }
      harvested += p_harv * dt;
      const double v2 = v * v + 2.0 * (p_harv - p_draw) * dt / c_solar.value();
      v = std::sqrt(std::max(v2, 0.0));
    }
    return {Joules(harvested), Volts(v)};
  };

  GainEstimate out;
  const auto constant = integrate(plan.nominal, plan.nominal);
  const auto sprint = integrate(plan.slow, plan.fast);
  out.solar_constant = constant.first;
  out.solar_sprint = sprint.first;
  out.end_voltage_constant = constant.second;
  out.end_voltage_sprint = sprint.second;
  if (out.solar_constant.value() > 0.0) {
    out.extra_solar_fraction = out.solar_sprint / out.solar_constant - 1.0;
  }
  return out;
}

SprintRun SprintRun::begin(const SprintPlan& plan, const SocState& state,
                           SocCommand& cmd) {
  cmd.path = PowerPath::kRegulated;
  cmd.vdd_target = plan.slow.vdd;
  cmd.frequency = plan.slow.frequency;
  cmd.run = true;
  return SprintRun{plan, state.time, state.cycles_retired, false};
}

void SprintRun::command(const SocState& state, SocCommand& cmd,
                        const ControlPlant& plant, bool allow_bypass) {
  if (bypassed) {
    // The shared node can overshoot Vmax under strong sun: clock at the
    // envelope's top there.
    if (state.v_dd >= plant.min_voltage()) {
      cmd.frequency = plant.max_frequency(std::min(state.v_dd, plant.max_voltage()));
    }
    return;
  }

  const Seconds elapsed = state.time - started;
  const OperatingPoint& op = elapsed < plan.phase_time ? plan.slow : plan.fast;
  cmd.vdd_target = op.vdd;
  cmd.frequency = op.frequency;
  if (!allow_bypass) return;

  const bool no_headroom = !plant.supports(state.v_solar, op.vdd);
  const bool sagging = state.v_dd.value() < op.vdd.value() - kSprintSagMargin &&
                       elapsed.value() > kSprintSagArmTime;
  if (no_headroom || sagging) {
    bypassed = true;
    cmd.path = PowerPath::kBypass;
  }
}

SprintController::SprintController(const SystemModel& model, SprintPlan plan,
                                   bool enable_bypass)
    : plant_(std::make_unique<ModelPlant>(model, MppTrackerParams{})),
      run_{std::move(plan)}, enable_bypass_(enable_bypass) {
  HEMP_REQUIRE(run_.plan.feasible, "SprintController: plan is infeasible");
}

SprintController::~SprintController() = default;

void SprintController::on_start(const SocState& state, SocCommand& cmd) {
  run_ = SprintRun::begin(run_.plan, state, cmd);
  done_ = false;
  bypass_at_.reset();
  done_at_.reset();
}

void SprintController::on_tick(const SocState& state, SocCommand& cmd) {
  if (done_) {
    cmd.run = false;
    return;
  }
  if (state.cycles_retired - run_.start_cycles >= run_.plan.cycles) {
    done_ = true;
    done_at_ = state.time;
    cmd.run = false;
    return;
  }
  const bool was_bypassed = run_.bypassed;
  run_.command(state, cmd, *plant_, enable_bypass_);
  if (run_.bypassed && !was_bypassed) bypass_at_ = state.time;
}

bool SprintController::finished(const SocState& state) {
  if (done_) return true;
  if (run_.bypassed) {
    // Dead when the rail fell below operating range and the solar node has
    // nothing left to push into it.
    constexpr double kGiveUpMargin = 0.01;  // V
    const double vmin = plant_->min_voltage().value();
    if (state.v_dd.value() < vmin - kGiveUpMargin &&
        state.v_solar.value() < state.v_dd.value() + kGiveUpMargin) {
      return true;
    }
  }
  return false;
}

}  // namespace hemp
