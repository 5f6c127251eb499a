// Surface-only event-driven single-node engine: the fast path behind
// SocSystem::run (opt-in via SocConfig::fast_path).
//
// The dense reference loop (soc_system.cpp) evaluates the exact component
// models every 2 us tick — a Brent solve for the cell current dominates.
// This engine instead reads the precomputed hemp::flat surfaces (terminal-
// current IV grid with in-cell Jacobian, flat switched-cap / processor
// mirrors) and advances in long closed-form steps bounded by
//
//   * timed controller events (SocStepHint deadlines, trace knots, the
//     waveform decimation cadence),
//   * analytic no-late-detection watch bounds on every level a comparator or
//     the controller observes (flat::watch_bound_dt), and
//   * accuracy caps (rail settling at ~2*tau, bypass rail swing).
//
// Steps are quantized to whole reference ticks so controller decisions land
// on the same instants the fixed-step loop uses.  The regulated rail advances
// with the exact piecewise 3-regime closed form of the reference tick map
// (flat::rail_regulated_step); the solar node integrates implicit-midpoint
// over the IV surface.  Zero exact solves run inside the stepped loop — the
// equivalence suite in tests/sim asserts this via hemp::solver_stats.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/solver_stats.hpp"
#include "regulator/switched_cap.hpp"
#include "sim/flat_model.hpp"
#include "sim/soc_system.hpp"

namespace hemp {

/// Cached surfaces: rebuilt only when a trace exceeds the covered irradiance.
struct FastSocContext {
  flat::FlatSc sc;
  flat::FlatProc pc;
  flat::IvSurface iv;
  double g_max = 0.0;
};

bool SocSystem::fast_eligible() const {
  return dynamic_cast<const SwitchedCapRegulator*>(regulator_.get()) != nullptr;
}

namespace {

/// Above this solar-to-rail gap the bypass switch is still slewing the rail
/// through its R_on (tau_RC ~ R_on * C_parallel, a few tens of us): the
/// quasi-steady merged closed form does not apply yet, and — critically — the
/// processor load drawn *during* the merge is what keeps the rail peak below
/// vmax in the reference.  The engine replays the reference RC tick exactly
/// through this regime and hands over to the merged form once inside the band.
constexpr double kBypassMergeBand = 0.02;

struct FastEngine {
  // Wiring (set once in run_fast).
  const FastSocContext* ctx = nullptr;
  SocController* controller = nullptr;
  ComparatorBank* comparators = nullptr;
  std::vector<ComparatorEvent>* events = nullptr;
  Waveform* waveform = nullptr;
  const flat::FlatTrace* trace = nullptr;
  flat::IvSurface::Bound iv{};
  double t_end = 0.0;
  double dt_min = 0.0;
  double tau = 0.0;
  double c_solar = 0.0, c_vdd = 0.0, r_on = 0.0;
  double interval = 0.0;

  // Stepped state.
  double t = 0.0;
  double v_s = 0.0, v_d = 0.0;
  SocState state{};
  SocCommand cmd{};
  std::size_t cur = 0;
  double next_sample = 0.0;

  bool vmin_latch = false;
  bool fault_latch = false;
  bool was_running = false;
  bool can_run = false;
  bool reg_ok = true;
  double f_eff = 0.0;
  double p_load = 0.0;

  SimTotals totals{};
  // Step accounting (flushed to solver_stats once per run).
  solver_stats::StepCause step_cause = solver_stats::StepCause::kDeadline;
  std::uint64_t step_counts[solver_stats::kStepCauseCount] = {};
  double harvested = 0.0;
  double delivered = 0.0;
  double reg_loss = 0.0;
  double byp_loss = 0.0;
  double halted = 0.0;
  double cycles = 0.0;

  /// Step length: earliest timed event, tightened by the analytic watch
  /// bounds, quantized to whole reference ticks (see batch_kernel.cpp for
  /// the same scheme over the flattened fleet controller).
  HEMP_HOT double choose_dt(double g0, const SocStepHint& hint) {
    using solver_stats::StepCause;
    step_cause = StepCause::kDeadline;
    if (hint.next_deadline_s <= t + 1e-15) return dt_min;  // decide next tick
    if (cmd.path == PowerPath::kBypass && v_s - v_d > kBypassMergeBand) {
      step_cause = StepCause::kSettle;
      return std::min(dt_min, t_end - t);  // dense RC merge transient
    }
    double dt =
        std::min(t_end - t, can_run ? flat::kRunDtCap : flat::kDtMax);
    {
      const double knot = trace->next_knot(t, cur);
      if (knot > t && knot - t < dt) {
        dt = knot - t;
        step_cause = StepCause::kTraceKnot;
      }
    }
    auto deadline = [&](double when) {
      if (when > t && when - t < dt) {
        dt = when - t;
        step_cause = StepCause::kDeadline;
      }
    };
    // Waveform decimation is a hard cadence: a record fires this iteration
    // when next_sample is already due, so the step must not overshoot the
    // sample after it — otherwise long settle/watch episodes would thin the
    // record below the configured interval.
    deadline(next_sample > t ? next_sample : t + interval);
    deadline(hint.next_deadline_s);

    // Regulated rail outside its settle band: fine steps while the clock
    // runs (p_load(v_d) and f_max(v_dd) must track the moving rail); with
    // the clock gated, one closed-form step to the episode endpoint — the
    // tick where the 3-regime map first enters the band — and no cap at all
    // for a pinned rail (see batch_kernel.cpp for the full argument).
    if (cmd.path == PowerPath::kRegulated) {
      const double vt = cmd.vdd_target.value();
      const double e_t = 0.5 * c_vdd * vt * vt + p_load * dt_min;
      const double v_eff = std::sqrt(2.0 * e_t / c_vdd);
      if (std::fabs(v_d - v_eff) > flat::kRailBand) {
        if (p_load > 0.0) {
          if (flat::kRailSettleFactor * tau < dt) {
            dt = flat::kRailSettleFactor * tau;
            step_cause = StepCause::kSettle;
          }
        } else {
          double dt_settle = std::numeric_limits<double>::infinity();
          if (flat::sc_supports(ctx->sc, v_s, vt)) {
            const double e_0 = 0.5 * c_vdd * v_d * v_d;
            const double v_lo = v_eff - flat::kRailBand;
            const double v_hi = v_eff + flat::kRailBand;
            dt_settle = flat::rail_settle_dt(
                e_0, e_t, dt_min, tau, 0.0, ctx->sc.rated,
                0.5 * c_vdd * v_lo * v_lo, 0.5 * c_vdd * v_hi * v_hi);
            // Supported episodes keep the classic ~2*tau cap: eta(vin) and
            // the supports check freeze at step start, and the equivalence
            // suite degrades past that horizon (see batch_kernel.cpp for
            // the full argument).  Pinned rails run uncapped.
            dt_settle = std::min(dt_settle, flat::kRailSettleFactor * tau);
          }
          if (dt_settle < dt) {
            dt = std::max(dt_settle, dt_min);
            step_cause = StepCause::kSettle;
          }
        }
      }
    }

    // G is linear between knots and dt never crosses one, so the maximum
    // irradiance over the step sits at an endpoint.
    const double g_end = trace->constant ? g0 : trace->at(t + dt, cur);
    const double g_hi = std::max(g0, g_end);
    const double i_pv_now = iv.cell_i(v_s, g_hi);

    // Bypass rides the clock on the shared node: cap the rail swing per step
    // to keep the frequency error small (accuracy, not crossing detection).
    if (cmd.path != PowerPath::kRegulated && can_run) {
      const double i_load = p_load / std::max(v_d, flat::kWatchVFloor);
      const double i_net = std::fabs(i_pv_now - i_load);
      const double rate = (1.5 * i_net + 1e-6) / (c_solar + c_vdd);
      if (rate > 0.0 && flat::kBypassDvCap / rate < dt) {
        dt = flat::kBypassDvCap / rate;
        step_cause = StepCause::kWatchBound;
      }
    }

    flat::WatchAccum ws, wd;
    // Comparator bank levels, direction-resolved by the latched outputs.
    for (std::size_t i = 0; i < comparators->size(); ++i) {
      const double th = comparators->thresholds()[i].value();
      ws.level(v_s, comparators->output(i) ? th - flat::kCompHalfHyst
                                           : th + flat::kCompHalfHyst);
    }
    for (std::size_t i = 0; i < hint.solar_watch_count; ++i) {
      ws.level(v_s, hint.solar_watch[i]);
    }
    if (cmd.path == PowerPath::kRegulated) {
      // Ratio boundaries: eta and the supports envelope change across them.
      for (std::size_t k = 0; k < ctx->sc.n_ratios; ++k) {
        ws.level(v_s, (cmd.vdd_target.value() + ctx->sc.margin) /
                          ctx->sc.ratios[k]);
      }
    }
    if (cmd.run) {
      const double vmin_trip = vmin_latch && cmd.path == PowerPath::kBypass
                                   ? ctx->pc.vmin + flat::kVminHysteresis
                                   : ctx->pc.vmin;
      wd.level(v_d, vmin_trip);
    }
    if (cmd.path == PowerPath::kBypass) wd.level(v_d, ctx->pc.vmax);
    for (std::size_t i = 0; i < hint.rail_watch_count; ++i) {
      wd.level(v_d, hint.rail_watch[i]);
    }

    flat::WatchBoundIn wb;
    wb.dt = dt;
    wb.half_hyst = flat::kCompHalfHyst;
    wb.v_floor = flat::kWatchVFloor;
    wb.v_s = v_s;
    wb.v_d = v_d;
    wb.c_solar = c_solar;
    wb.c_vdd = c_vdd;
    wb.i_pv_now = i_pv_now;
    wb.p_load = p_load;
    wb.regulated = cmd.path == PowerPath::kRegulated;
    wb.conducting = cmd.path == PowerPath::kBypass && v_s > v_d;
    wb.cmd_vdd = cmd.vdd_target.value();
    wb.e_t = 0.5 * c_vdd * wb.cmd_vdd * wb.cmd_vdd + p_load * dt_min;
    wb.e_0 = 0.5 * c_vdd * v_d * v_d;
    wb.tau = tau;
    wb.dt_ref = dt_min;
    wb.sc_ok = flat::sc_supports(ctx->sc, v_s, wb.cmd_vdd);
    wb.sc = &ctx->sc;
    wb.iv = &iv;
    wb.g_hi = g_hi;
    wb.g_lo = std::min(g0, g_end);
    const double dt_watched = flat::watch_bound_dt(wb, ws, wd);
    if (dt_watched < dt) {
      dt = dt_watched;
      step_cause = StepCause::kWatchBound;
    }

    // Quantize to whole reference ticks (flooring preserves every bound), so
    // controller evals land on the instants the fixed-step loop uses; the
    // final partial step may be sub-tick.
    const double ticks = std::max(1.0, std::floor(dt / dt_min + 1e-6));
    return std::min(ticks * dt_min, t_end - t);
  }

  /// Advance both nodes by dt (shared hemp::flat primitives), with the
  /// reference loop's energy bookkeeping.
  HEMP_HOT void integrate(double dt, double g_mid) {
    if (cmd.path == PowerPath::kRegulated) {
      const double vt = cmd.vdd_target.value();
      const bool supports = flat::sc_supports(ctx->sc, v_s, vt);
      reg_ok = supports;
      double p_in = 0.0;
      double p_out = 0.0;
      if (supports) {
        const double e_t = 0.5 * c_vdd * vt * vt + p_load * dt_min;
        const double e_0 = 0.5 * c_vdd * v_d * v_d;
        const flat::RailEpisode ep = flat::rail_regulated_episode(
            e_0, e_t, dt, dt_min, tau, p_load, ctx->sc.rated);
        // Conversion losses priced per regime (mirrors batch_kernel.cpp):
        // ramp at rated, drain at zero, geometric phase at its own average.
        double e_in = 0.0;
        double e_out = 0.0;
        if (ep.t_ramp > 0.0) {
          const double eta =
              flat::sc_efficiency(ctx->sc, v_s, vt, ctx->sc.rated);
          if (eta > 0.0) {
            e_out += ctx->sc.rated * ep.t_ramp;
            e_in += ctx->sc.rated * ep.t_ramp / eta;
          } else {
            reg_ok = false;  // regulator stalled: no transfer this regime
          }
        }
        if (ep.t_decay > 0.0) {
          const double p_restore = (ep.e_end - ep.e_decay_0) / ep.t_decay;
          const double p_dec =
              std::clamp(p_load + p_restore, 0.0, ctx->sc.rated);
          if (p_dec > 0.0) {
            const double eta = flat::sc_efficiency(ctx->sc, v_s, vt, p_dec);
            if (eta > 0.0) {
              e_out += p_dec * ep.t_decay;
              e_in += p_dec * ep.t_decay / eta;
            } else {
              reg_ok = false;
            }
          }
        }
        p_out = e_out / dt;
        p_in = e_in / dt;
      }
      harvested += dt * flat::integrate_solar(iv, c_solar, v_s, dt, g_mid, p_in);
      reg_loss += (p_in - p_out) * dt;
      double e_d = 0.5 * c_vdd * v_d * v_d + (p_out - p_load) * dt;
      if (e_d < 0.0) e_d = 0.0;
      v_d = std::sqrt(2.0 * e_d / c_vdd);
      return;
    }

    reg_ok = true;
    if (cmd.path == PowerPath::kBypass && v_s > v_d) {
      if (v_s - v_d > kBypassMergeBand) {
        // Bypass-entry transient (dt pinned to one reference tick by
        // choose_dt): replay the reference update exactly — harvest, load
        // drain, then the dv/R_on charge transfer with measured-loss
        // bookkeeping — so the rail trajectory (and its sub-vmax peak under
        // the growing f_max(v_dd) load) matches the dense loop.
        const double i_pv = iv.cell_i(v_s, g_mid);
        harvested += v_s * i_pv * dt;
        double v_s1 =
            std::sqrt(v_s * v_s + 2.0 * v_s * i_pv * dt / c_solar);
        double e_d = 0.5 * c_vdd * v_d * v_d - p_load * dt;
        if (e_d < 0.0) e_d = 0.0;
        double v_d1 = std::sqrt(2.0 * e_d / c_vdd);
        const double i_r = (v_s1 - v_d1) / r_on;
        if (i_r > 0.0) {
          const double e_s_pre = 0.5 * c_solar * v_s1 * v_s1;
          const double e_d_pre = 0.5 * c_vdd * v_d1 * v_d1;
          v_s1 = std::max(v_s1 - i_r * dt / c_solar, 0.0);
          v_d1 += i_r * dt / c_vdd;
          byp_loss += (e_s_pre - 0.5 * c_solar * v_s1 * v_s1) -
                      (0.5 * c_vdd * v_d1 * v_d1 - e_d_pre);
        }
        v_s = v_s1;
        v_d = v_d1;
        return;
      }
      const flat::BypassStepResult r = flat::integrate_bypass_merged(
          iv, c_solar, c_vdd, r_on, v_s, v_d, dt, g_mid, p_load,
          flat::kWatchVFloor);
      if (r.conducted) {
        harvested += dt * r.p_harvest_avg;
        byp_loss += r.i_r * r.i_r * r_on * dt;
        return;
      }
      // Diode would block: fall through and integrate the nodes detached.
    }
    harvested += dt * flat::integrate_solar(iv, c_solar, v_s, dt, g_mid, 0.0);
    double e_d = 0.5 * c_vdd * v_d * v_d - p_load * dt;
    if (e_d < 0.0) e_d = 0.0;
    v_d = std::sqrt(2.0 * e_d / c_vdd);
  }

  HEMP_HOT SimResult loop() {
    while (t < t_end - 1e-15) {
      const double g0 = trace->at(t, cur);

      // --- Controller evaluation at the step boundary. ---------------------
      state.time = Seconds(t);
      state.irradiance = g0;
      state.v_solar = Volts(v_s);
      state.v_dd = Volts(v_d);
      state.p_harvest = Watts(v_s * iv.cell_i(v_s, g0));
      state.path = cmd.path;
      controller->on_tick(state, cmd);

      // --- Load for the step (reference tick semantics + vmin latch). ------
      if (v_d < ctx->pc.vmin) {
        vmin_latch = true;
      } else if (v_d >= ctx->pc.vmin + (cmd.path == PowerPath::kBypass
                                            ? flat::kVminHysteresis
                                            : 0.0)) {
        vmin_latch = false;
      }
      can_run = cmd.run && !vmin_latch && v_d <= ctx->pc.vmax;
      p_load = 0.0;
      f_eff = 0.0;
      if (can_run) {
        const double fmax_now = flat::proc_fmax(
            ctx->pc, std::clamp(v_d, ctx->pc.vmin, ctx->pc.vmax));
        f_eff = cmd.frequency.value();
        bool clamped = false;
        if (f_eff > fmax_now) {
          clamped = true;
          f_eff = fmax_now;
        }
        // The reference counts clamped ticks; this engine counts clamp
        // episodes (transitions into the clamped condition).
        if (clamped && !fault_latch) ++totals.timing_faults;
        fault_latch = clamped;
        p_load = flat::proc_power(ctx->pc, v_d, f_eff);
      } else {
        fault_latch = false;
        if (was_running && cmd.run) ++totals.brownouts;
      }
      was_running = can_run;

      // --- Step length from the controller's own bounds. -------------------
      SocStepHint hint;
      controller->step_hint(state, hint);
      step_cause = solver_stats::StepCause::kDeadline;
      const double dt = hint.event_driven ? choose_dt(g0, hint) : dt_min;
      ++step_counts[static_cast<int>(step_cause)];

      const double g_mid = trace->at(t + 0.5 * dt, cur);
      integrate(dt, g_mid);

      if (can_run) {
        cycles += f_eff * dt;
        delivered += p_load * dt;
      } else if (cmd.run) {
        halted += dt;
      }

      // --- Post-step state, comparator edges, decimated waveform. ----------
      state.v_solar = Volts(v_s);
      state.v_dd = Volts(v_d);
      state.p_processor = Watts(p_load);
      state.frequency = Hertz(f_eff);
      state.processor_running = can_run;
      state.regulator_ok = reg_ok;
      state.cycles_retired = cycles;
      comparators->update_into(Volts(v_s), Seconds(t + dt), *events);
      for (const ComparatorEvent& ev : *events) {
        controller->on_comparator(ev, state, cmd);
      }
      if (t >= next_sample) {
        const double row[8] = {v_s,
                               v_d,
                               g0,
                               f_eff,
                               state.p_harvest.value(),
                               p_load,
                               static_cast<double>(static_cast<int>(cmd.path)),
                               cycles};
        waveform->record(t, row);
        next_sample = t + interval;
      }
      t += dt;
      totals.simulated_time = Seconds(t);
      if (controller->finished(state)) break;
    }

    totals.harvested = Joules(harvested);
    totals.delivered_to_processor = Joules(delivered);
    totals.regulator_loss = Joules(reg_loss);
    totals.bypass_loss = Joules(byp_loss);
    totals.cycles = cycles;
    totals.halted_time = Seconds(halted);
    for (int c = 0; c < solver_stats::kStepCauseCount; ++c) {
      solver_stats::count_steps(static_cast<solver_stats::StepCause>(c),
                                step_counts[c]);
    }
    // hemp-analyzer: allow(hot-path-purity) — slack trim after the stepped loop
    waveform->finalize();
    return SimResult{std::move(*waveform), totals, state};
  }
};

}  // namespace

SimResult SocSystem::run_fast(const IrradianceTrace& trace_in,
                              SocController& controller, Seconds t_end) {
  flat::FlatTrace trace = flat::flatten_trace(trace_in, t_end.value());
  if (config_.trace_coarsen_eps > 0.0) {
    trace.coarsen(config_.trace_coarsen_eps * t_end.value());
  }
  double g_need = trace.constant
                      ? trace.g_const
                      : *std::max_element(trace.gs.begin(), trace.gs.end());
  g_need = std::max(1.25, g_need * 1.05);

  if (!fast_ctx_ || fast_ctx_->g_max < g_need) {
    auto ctx = std::make_shared<FastSocContext>();
    const auto* screg =
        dynamic_cast<const SwitchedCapRegulator*>(regulator_.get());
    HEMP_REQUIRE(screg != nullptr,
                 "SocSystem: fast path needs the switched-cap regulator");
    ctx->sc = flat::make_flat_sc(screg->params());
    ctx->pc = flat::make_flat_proc(processor_);
    // Cover the full reachable solar-node range: open-circuit at the surface's
    // peak irradiance plus margin, and the configured start voltage.
    const double v_max = std::max(1.15 * config_.pv.voc_full_sun.value(),
                                  config_.solar_start_voltage.value() + 0.1);
    ctx->iv = flat::build_iv_surface({1.0}, config_.pv, v_max, /*v_knots=*/160,
                                     g_need, /*g_knots=*/64);
    ctx->g_max = g_need;
    fast_ctx_ = std::move(ctx);
  }

  ComparatorBank comparators(config_.comparator_thresholds);
  comparators.reset(config_.solar_start_voltage);
  std::vector<ComparatorEvent> events;
  events.reserve(comparators.size());
  Waveform waveform({"v_solar", "v_dd", "irradiance", "frequency_hz",
                     "p_harvest_w", "p_processor_w", "path", "cycles"});
  waveform.reserve_samples(
      static_cast<std::size_t>(t_end.value() / config_.waveform_interval.value()) +
      2);

  FastEngine e;
  e.ctx = fast_ctx_.get();
  e.controller = &controller;
  e.comparators = &comparators;
  e.events = &events;
  e.waveform = &waveform;
  e.trace = &trace;
  e.iv = fast_ctx_->iv.bind(1.0);
  e.t_end = t_end.value();
  e.dt_min = config_.time_step.value();
  e.tau = config_.regulation_time_constant.value();
  e.c_solar = config_.solar_capacitance.value();
  e.c_vdd = config_.vdd_capacitance.value();
  e.r_on = config_.bypass.on_resistance.value();
  e.interval = config_.waveform_interval.value();
  e.v_s = config_.solar_start_voltage.value();
  e.v_d = config_.vdd_start_voltage.value();

  e.cmd.vdd_target = config_.vdd_start_voltage;
  e.state.v_solar = Volts(e.v_s);
  e.state.v_dd = Volts(e.v_d);
  e.state.irradiance = trace_in.at(Seconds(0.0));
  controller.on_start(e.state, e.cmd);
  return e.loop();
}

}  // namespace hemp
