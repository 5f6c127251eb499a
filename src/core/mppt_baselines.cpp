#include "core/mppt_baselines.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/mpp_tracker.hpp"

namespace hemp {
void PerturbObserveParams::validate() const {
  HEMP_REQUIRE(perturb_period.value() > 0.0, "P&O: bad perturb period");
  HEMP_REQUIRE(dvfs_steps >= 4, "P&O: need >= 4 DVFS steps");
}

PerturbObserveController::PerturbObserveController(const SystemModel& model,
                                                   const PerturbObserveParams& params)
    : model_(&model), params_(params),
      ladder_(DvfsLadder::spanning(
          model.processor().min_voltage(),
          std::min(params.vdd_ceiling, model.processor().max_voltage()),
          params.dvfs_steps,
          [&model](Volts v) { return model.processor().max_frequency(v); })) {
  params_.validate();
}

void PerturbObserveController::apply_level(SocCommand& cmd) {
  const OperatingPoint& op = ladder_.at(level_);
  cmd.vdd_target = op.vdd;
  cmd.frequency = op.frequency;
}

void PerturbObserveController::on_start(const SocState& state, SocCommand& cmd) {
  (void)state;
  cmd.path = PowerPath::kRegulated;
  cmd.run = true;
  level_ = 0;
  apply_level(cmd);
}

void PerturbObserveController::on_tick(const SocState& state, SocCommand& cmd) {
  if (state.time < next_perturb_) return;
  next_perturb_ = state.time + params_.perturb_period;
  // Observe: the power sensor reads the instantaneous harvest.
  const Watts p = state.p_harvest;
  if (perturbations_ > 0) {
    if (p < prev_power_) {
      direction_ = -direction_;  // got worse: reverse the hill climb
      ++reversals_;
    }
  }
  prev_power_ = p;
  // Perturb.
  const long next = static_cast<long>(level_) + direction_;
  if (next < 0 || next >= static_cast<long>(ladder_.size())) {
    direction_ = -direction_;
  } else {
    level_ = static_cast<std::size_t>(next);
  }
  apply_level(cmd);
  ++perturbations_;
}

void FractionalVocParams::validate() const {
  HEMP_REQUIRE(voc_fraction > 0.0 && voc_fraction < 1.0,
               "FractionalVoc: fraction must be in (0, 1)");
  HEMP_REQUIRE(sample_period > sample_window,
               "FractionalVoc: sample period must exceed the window");
  HEMP_REQUIRE(sample_window.value() > 0.0, "FractionalVoc: bad sample window");
  HEMP_REQUIRE(control_period.value() > 0.0, "FractionalVoc: bad control period");
  HEMP_REQUIRE(dvfs_steps >= 4, "FractionalVoc: need >= 4 DVFS steps");
}

FractionalVocController::FractionalVocController(const SystemModel& model,
                                                 const FractionalVocParams& params)
    : model_(&model), params_(params),
      ladder_(DvfsLadder::spanning(
          model.processor().min_voltage(),
          std::min(params.vdd_ceiling, model.processor().max_voltage()),
          params.dvfs_steps,
          [&model](Volts v) { return model.processor().max_frequency(v); })) {
  params_.validate();
}

void FractionalVocController::apply_level(SocCommand& cmd) {
  const OperatingPoint& op = ladder_.at(level_);
  cmd.vdd_target = op.vdd;
  cmd.frequency = op.frequency;
}

void FractionalVocController::on_start(const SocState& state, SocCommand& cmd) {
  cmd.path = PowerPath::kRegulated;
  cmd.run = true;
  level_ = 0;
  prev_v_solar_ = state.v_solar;
  // First Voc sample happens immediately (cold start needs a target).
  sampling_ = true;
  sample_ends_ = state.time + params_.sample_window;
  next_sample_ = state.time + params_.sample_period;
  cmd.run = false;  // open the load
}

void FractionalVocController::on_tick(const SocState& state, SocCommand& cmd) {
  if (sampling_) {
    if (state.time < sample_ends_) return;  // node still rising toward Voc
    // Sample: the node is (approximately) at open circuit now.
    v_target_ = Volts(params_.voc_fraction * state.v_solar.value());
    sampling_ = false;
    ++samples_;
    cmd.run = true;
    apply_level(cmd);
    return;
  }
  if (state.time >= next_sample_) {
    sampling_ = true;
    sample_ends_ = state.time + params_.sample_window;
    next_sample_ = state.time + params_.sample_period;
    cmd.run = false;  // open the load for the next Voc sample
    return;
  }
  // Regulate the node toward k * Voc with the damped ladder stepper.
  if (state.time < next_control_) return;
  next_control_ = state.time + params_.control_period;
  const double err = state.v_solar.value() - v_target_.value();
  const double dv = state.v_solar.value() - prev_v_solar_.value();
  prev_v_solar_ = state.v_solar;
  if (const int delta =
          po_ladder_step(params_.deadband, params_.slew_tolerance, err, dv)) {
    const long next = static_cast<long>(level_) + delta;
    level_ = static_cast<std::size_t>(
        std::clamp<long>(next, 0, static_cast<long>(ladder_.size()) - 1));
    apply_level(cmd);
  }
}

}  // namespace hemp
