#include "sim/soc_system.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"

namespace hemp {

void SocConfig::validate() const {
  pv.validate();
  HEMP_REQUIRE(solar_capacitance.value() > 0.0, "SocConfig: solar cap must be positive");
  HEMP_REQUIRE(vdd_capacitance.value() > 0.0, "SocConfig: vdd cap must be positive");
  HEMP_REQUIRE(solar_start_voltage.value() >= 0.0, "SocConfig: negative start voltage");
  HEMP_REQUIRE(vdd_start_voltage.value() >= 0.0, "SocConfig: negative start voltage");
  HEMP_REQUIRE(time_step.value() > 0.0, "SocConfig: time step must be positive");
  HEMP_REQUIRE(regulation_time_constant >= time_step,
               "SocConfig: regulation loop must be slower than the time step");
  HEMP_REQUIRE(waveform_interval >= time_step,
               "SocConfig: waveform interval must be >= time step");
  bypass.validate();
}

SocSystem::SocSystem(SocConfig config, RegulatorPtr regulator, Processor processor)
    : config_(std::move(config)), regulator_(std::move(regulator)),
      processor_(std::move(processor)), cell_(config_.pv) {
  config_.validate();
  HEMP_REQUIRE(regulator_ != nullptr, "SocSystem: null regulator");
}

SimResult SocSystem::run(const IrradianceTrace& trace, SocController& controller,
                         Seconds t_end) {
  HEMP_REQUIRE(t_end.value() > 0.0, "SocSystem: non-positive end time");
  if (config_.fast_path && !config_.audit && fast_eligible()) {
    return run_fast(trace, controller, t_end);
  }
  return run_reference(trace, controller, t_end);
}

SimResult SocSystem::run_reference(const IrradianceTrace& trace,
                                   SocController& controller, Seconds t_end) {
  const double dt = config_.time_step.value();

  Capacitor solar_cap(config_.solar_capacitance, config_.solar_start_voltage);
  Capacitor vdd_cap(config_.vdd_capacitance, config_.vdd_start_voltage);
  Waveform waveform = make_soc_waveform(t_end, config_.waveform_interval);
  SimTotals totals;
  SocState state;
  SocCommand cmd;
  cmd.vdd_target = config_.vdd_start_voltage;

  state.v_solar = solar_cap.voltage();
  state.v_dd = vdd_cap.voltage();
  state.irradiance = trace.at(Seconds(0.0));
  controller.on_start(state, cmd);

  InvariantAuditor auditor("SocSystem");
  const bool audit = config_.audit;
  bool was_running = false;
  double next_sample = 0.0;

  for (double t = 0.0; t < t_end.value(); t += dt) {
    const Seconds now(t);
    const double g = trace.at(now);
    const Joules e_stored_pre = solar_cap.stored_energy() + vdd_cap.stored_energy();

    // --- Harvest: PV current charges the solar node. -------------------------
    const Volts v_solar_pre = solar_cap.voltage();
    const Amps i_pv = cell_.current(v_solar_pre, g);
    const Watts p_harvest = v_solar_pre * i_pv;
    solar_cap.apply_power(p_harvest, Seconds(dt));
    totals.harvested += p_harvest * Seconds(dt);

    // --- Controller observes pre-transfer state. ----------------------------
    state.time = now;
    state.irradiance = g;
    state.v_solar = solar_cap.voltage();
    state.v_dd = vdd_cap.voltage();
    state.p_harvest = p_harvest;
    state.path = cmd.path;
    controller.on_tick(state, cmd);

    // --- Processor load this tick (from the previous rail voltage). ----------
    const Volts vdd_now = vdd_cap.voltage();
    const bool can_run = cmd.run && vdd_now >= processor_.min_voltage() &&
                         vdd_now <= processor_.max_voltage();
    Hertz f_eff(0.0);
    Watts p_load(0.0);
    if (can_run) {
      const Hertz f_max = processor_.max_frequency(vdd_now);
      f_eff = cmd.frequency;
      if (f_eff > f_max) {
        ++totals.timing_faults;
        f_eff = f_max;
      }
      p_load = processor_.power_model().total_power(vdd_now, f_eff);
      totals.cycles += f_eff.value() * dt;
      totals.delivered_to_processor += p_load * Seconds(dt);
    } else {
      // Halted: power-gated, no draw; count the brownout transition.
      if (was_running && cmd.run) ++totals.brownouts;
      if (cmd.run) totals.halted_time += Seconds(dt);
    }
    was_running = can_run;
    // Measured (not commanded) load energy: apply_power clamps at 0 V, so the
    // stored-energy delta is the ground truth the audit ledger needs.
    const Joules e_vdd_before_load = vdd_cap.stored_energy();
    vdd_cap.apply_power(-p_load, Seconds(dt));
    const Joules e_load_actual = e_vdd_before_load - vdd_cap.stored_energy();

    // --- Power transfer along the commanded path. ----------------------------
    bool regulator_ok = true;
    Joules e_loss_tick{0.0};
    if (cmd.path == PowerPath::kRegulated) {
      const Volts vin = solar_cap.voltage();
      if (!regulator_->supports(vin, cmd.vdd_target)) {
        regulator_ok = false;  // input collapsed below the converter's range
      } else {
        // Output restoration: refill the rail toward the target with the
        // configured loop time constant, on top of steady-state load power.
        const double tau = config_.regulation_time_constant.value();
        const double dv2 = cmd.vdd_target.value() * cmd.vdd_target.value() -
                           vdd_cap.voltage().value() * vdd_cap.voltage().value();
        const double p_restore = 0.5 * config_.vdd_capacitance.value() * dv2 / tau;
        double p_out = std::clamp(p_load.value() + p_restore, 0.0,
                                  regulator_->rated_load().value());
        if (p_out > 0.0) {
          const double eta = regulator_->efficiency(vin, cmd.vdd_target, Watts(p_out));
          if (audit) auditor.check_efficiency(regulator_->name(), eta);
          if (eta <= 0.0) {
            regulator_ok = false;
          } else {
            double p_in = p_out / eta;
            // Do not pull the solar node below zero within this tick.
            const double e_avail = solar_cap.stored_energy().value();
            if (p_in * dt > e_avail) {
              const double scale = e_avail / (p_in * dt);
              p_in *= scale;
              p_out *= scale;
            }
            solar_cap.apply_power(Watts(-p_in), Seconds(dt));
            vdd_cap.apply_power(Watts(p_out), Seconds(dt));
            e_loss_tick = Joules((p_in - p_out) * dt);
            totals.regulator_loss += e_loss_tick;
          }
        }
      }
    } else if (cmd.path == PowerPath::kBypass) {
      // Switch conducts solar -> rail only (ideal series diode behaviour).
      const double dv = solar_cap.voltage().value() - vdd_cap.voltage().value();
      if (dv > 0.0) {
        const double i = dv / config_.bypass.on_resistance.value();
        // Book the loss as the measured stored-energy imbalance of the
        // transfer rather than i^2*R*dt: the discrete apply_current update
        // differs from the analog dissipation at second order in dt, and the
        // measured value is what keeps the per-tick energy ledger exact.
        const Joules e_solar_before = solar_cap.stored_energy();
        const Joules e_vdd_before = vdd_cap.stored_energy();
        solar_cap.apply_current(Amps(-i), Seconds(dt));
        vdd_cap.apply_current(Amps(i), Seconds(dt));
        e_loss_tick = (e_solar_before - solar_cap.stored_energy()) -
                      (vdd_cap.stored_energy() - e_vdd_before);
        totals.bypass_loss += e_loss_tick;
      }
    }

    // --- Physics-invariant audit (HEMP_AUDIT / SocConfig::audit). -------------
    if (audit) {
      auditor.check_monotonic_time(now);
      auditor.check_finite_voltage("v_solar", solar_cap.voltage());
      auditor.check_finite_voltage("v_dd", vdd_cap.voltage());
      const Joules e_stored_post =
          solar_cap.stored_energy() + vdd_cap.stored_energy();
      auditor.check_energy_step(e_stored_post - e_stored_pre,
                                p_harvest * Seconds(dt), e_load_actual,
                                e_loss_tick);
      totals.audit_checks = auditor.checks_run();
    }

    // --- Post-step state. -----------------------------------------------------
    state.v_solar = solar_cap.voltage();
    state.v_dd = vdd_cap.voltage();
    state.p_processor = p_load;
    state.frequency = f_eff;
    state.processor_running = can_run;
    state.regulator_ok = regulator_ok;
    state.cycles_retired = totals.cycles;

    // --- Waveform decimation. -------------------------------------------------
    if (t >= next_sample) {
      record_soc_sample(waveform, t, state, cmd.path);
      next_sample = t + config_.waveform_interval.value();
    }

    totals.simulated_time = Seconds(t + dt);
    if (controller.finished(state)) break;
  }

  waveform.finalize();
  return SimResult{std::move(waveform), totals, state};
}

Waveform make_soc_waveform(Seconds t_end, Seconds interval) {
  Waveform waveform({"v_solar", "v_dd", "irradiance", "frequency_hz",
                     "p_harvest_w", "p_processor_w", "path", "cycles"});
  waveform.reserve_samples(
      static_cast<std::size_t>(t_end.value() / interval.value()) + 2);
  return waveform;
}

void record_soc_sample(Waveform& waveform, double t, const SocState& state,
                       PowerPath path) {
  const double row[8] = {state.v_solar.value(),  state.v_dd.value(),
                         state.irradiance,        state.frequency.value(),
                         state.p_harvest.value(), state.p_processor.value(),
                         static_cast<double>(static_cast<int>(path)),
                         state.cycles_retired};
  waveform.record(t, row);
}

FixedPointController::FixedPointController(PowerPath path, Volts vdd_target,
                                           Hertz frequency) {
  fixed_.path = path;
  fixed_.vdd_target = vdd_target;
  fixed_.frequency = frequency;
  fixed_.run = true;
}

void FixedPointController::on_start(const SocState& state, SocCommand& cmd) {
  (void)state;
  cmd = fixed_;
}

void FixedPointController::step_hint(const SocState& state, SocStepHint& hint) const {
  (void)state;
  // The command never changes: the engine's own physics bounds (trace knots,
  // comparator levels, rail settling) are the only step limits.
  hint.event_driven = true;
}

}  // namespace hemp
