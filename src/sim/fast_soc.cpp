// Surface-only event-driven single-node engine: the fast path behind
// SocSystem::run (opt-in via SocConfig::fast_path).
//
// The dense reference loop (soc_system.cpp) evaluates the exact component
// models every 2 us tick — a Brent solve for the cell current dominates.
// This engine instead runs the shared event-step core (flat::StepCore,
// sim/flat_step.hpp; the fleet batch kernel runs the same one) over the
// precomputed hemp::flat surfaces, and adds what only a SocController
// needs: the controller's hint deadlines and watch levels, the waveform
// decimation cadence, the solar node's comparator levels as a step bound,
// and an exact replay of the reference RC tick through the bypass-entry
// transient.
//
// Steps are quantized to whole reference ticks so controller decisions land
// on the same instants the fixed-step loop uses.  Zero exact solves run
// inside the stepped loop — the equivalence suite in tests/sim asserts this
// via hemp::solver_stats.  The one solver the loop can reach is the IV
// surface's own Newton, once per v-row block on its first touch
// (flat::IvSurface::Filler); a repeat of a run solves nothing new.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/solver_stats.hpp"
#include "regulator/switched_cap.hpp"
#include "sim/flat_model.hpp"
#include "sim/flat_step.hpp"
#include "sim/soc_system.hpp"
#include "storage/comparator.hpp"

namespace hemp {

/// Cached surfaces: rebuilt only when a trace exceeds the covered irradiance.
/// The IV surface is solved on first touch through `fill` (which points at
/// `iv`, so the context stays where make_shared put it).
struct FastSocContext {
  flat::FlatSc sc;
  flat::FlatProc pc;
  flat::IvSurface iv;
  flat::IvSurface::Filler fill;
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

struct FastEngine : flat::StepCore {
  // Wiring (set once in run_fast).
  SocController* controller = nullptr;
  /// The solar node's comparator bank, a step bound only (`edges`: its scratch).
  ComparatorBank* comparators = nullptr;
  std::vector<ComparatorEvent>* edges = nullptr;
  Waveform* waveform = nullptr;
  double interval = 0.0;

  // Controller-facing state.
  SocState state{};
  SocCommand cmd{};
  double next_sample = 0.0;

  /// Step length: the controller's hint exits, then the shared core bounded
  /// by the waveform cadence, the hint deadline and the hint watch levels.
  /// A due deadline costs one reference tick, as a decide-now request does.
  HEMP_HOT double choose_dt(double g0, const SocStepHint& hint) {
    if (hint.due || hint.decide_now) return dt_min;  // decide next tick
    if (cmd_path == PowerPath::kBypass && v_s - v_d > kBypassMergeBand) {
      step_cause = solver_stats::StepCause::kSettle;
      return std::min(dt_min, t_end - t);  // dense RC merge transient
    }
    double dt = open_dt();
    // Waveform decimation is a hard cadence: a record fires this iteration
    // when next_sample is already due, so the step must not overshoot the
    // sample after it — otherwise long settle/watch episodes would thin the
    // record below the configured interval.
    deadline(dt, next_sample > t ? next_sample : t + interval);
    deadline(dt, hint.next_deadline_s);

    flat::WatchAccum ws, wd;
    watch_bank(ws, *comparators);
    watch_hint(ws, wd, hint);
    return close_dt(dt, g0, ws, wd);
  }

  /// Advance both nodes by dt: the shared core, except through the
  /// bypass-entry transient.
  HEMP_HOT void integrate(double dt, double g_mid) {
    if (cmd_path == PowerPath::kBypass && v_s - v_d > kBypassMergeBand) {
      // Bypass-entry transient (dt pinned to one reference tick by
      // choose_dt): replay the reference update exactly — harvest, load
      // drain, then the dv/R_on charge transfer with measured-loss
      // bookkeeping — so the rail trajectory (and its sub-vmax peak under
      // the growing f_max(v_dd) load) matches the dense loop.
      reg_ok = true;
      const double i_pv = iv.cell_i(v_s, g_mid);
      harvested += v_s * i_pv * dt;
      double v_s1 = std::sqrt(v_s * v_s + 2.0 * v_s * i_pv * dt / c_solar);
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
    StepCore::integrate(dt, g_mid);
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

      // --- Load for the step. ----------------------------------------------
      cmd_path = cmd.path;
      cmd_vdd = cmd.vdd_target.value();
      cmd_freq = cmd.frequency.value();
      cmd_run = cmd.run;
      load();

      // --- Step length from the controller's own bounds (a dense tick, or
      // the hint exits, counts as a deadline). ------------------------------
      state.frequency = Hertz(f_eff);  // the clock the hint's sprint end reads
      SocStepHint hint;
      hint.now = t + 1e-15;  // a deadline within 1e-15 s of t is due here
      controller->step_hint(state, hint);
      step_cause = solver_stats::StepCause::kDeadline;
      const double dt = hint.event_driven ? choose_dt(g0, hint) : dt_min;
      integrate(dt, trace->at(t + 0.5 * dt, cur));
      account(dt);

      // --- Post-step state, comparator latches, decimated waveform. -------
      state.v_solar = Volts(v_s);
      state.v_dd = Volts(v_d);
      state.p_processor = Watts(p_load);
      state.frequency = Hertz(f_eff);
      state.processor_running = can_run;
      state.regulator_ok = reg_ok;
      state.cycles_retired = cycles;
      comparators->update_into(Volts(v_s), Seconds(t + dt), *edges);
      if (t >= next_sample) {
        record_soc_sample(*waveform, t, state, cmd.path);
        next_sample = t + interval;
      }
      t += dt;
      if (controller->finished(state)) break;
    }

    SimTotals totals;
    totals.simulated_time = Seconds(t);
    totals.harvested = Joules(harvested);
    totals.delivered_to_processor = Joules(delivered);
    totals.regulator_loss = Joules(reg_loss);
    totals.bypass_loss = Joules(byp_loss);
    totals.cycles = cycles;
    totals.brownouts = brownouts;
    totals.timing_faults = timing_faults;
    totals.halted_time = Seconds(halted);
    flush_step_counts();
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
  const double g_peak =
      trace.constant ? trace.g_const
                     : *std::max_element(trace.gs.begin(), trace.gs.end());
  const double g_need = std::max(flat::kSurfaceGMax, g_peak * 1.05);

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
    ctx->iv = flat::size_iv_surface({1.0}, v_max, flat::kIvVKnots, g_need,
                                    flat::kIvGKnots);
    ctx->fill = flat::IvSurface::Filler(ctx->iv, config_.pv);
    ctx->g_max = g_need;
    fast_ctx_ = std::move(ctx);
  }
  // The run reads irradiance up to the trace peak only, and v-rows near the
  // node's path only: solve those cells on first touch, not the whole grid.
  fast_ctx_->fill.cover(g_peak);

  ComparatorBank comparators(kComparatorThresholds);
  comparators.reset(config_.solar_start_voltage);
  std::vector<ComparatorEvent> edges;
  edges.reserve(comparators.size());
  Waveform waveform = make_soc_waveform(t_end, config_.waveform_interval);

  FastEngine e;
  e.sc = fast_ctx_->sc;
  e.pc = fast_ctx_->pc;
  e.controller = &controller;
  e.comparators = &comparators;
  e.edges = &edges;
  e.waveform = &waveform;
  e.trace = &trace;
  e.iv = fast_ctx_->iv.bind(1.0);
  e.iv.fill = &fast_ctx_->fill;
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
