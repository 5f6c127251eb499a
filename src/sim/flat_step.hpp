// One event-step core for both event-driven engines (DESIGN.md Sec. 6m).
//
// The single-node fast path (sim/fast_soc.cpp) and the fleet batch kernel
// (fleet/batch_kernel.cpp) simulate the same node: a solar cell charging its
// storage capacitor, which feeds the Vdd rail through either the switched-cap
// regulator or the low-light bypass switch.  StepCore owns that node's step
// physics, built from the hemp::flat closed forms:
//
//   * load()      — vmin latch, clock gate, f_max clamp with fault-episode
//                   counting, brownout counting and the processor load;
//   * open_dt(), deadline(), close_dt() — the step length: the dt ceiling
//                   and trace knots, then the engine's timed events, then the
//                   rail settle episode, the bypass swing cap, the analytic
//                   watch bounds and whole-tick quantization;
//   * watch_bank(), watch_hint() — the next toggle level of each comparator
//                   of a bank, and the levels of a controller's step hint;
//   * integrate() — the regulated rail episode with per-regime loss pricing,
//                   the merged bypass step, or the detached node update;
//   * account()   — the step's cause count, cycles, delivered energy and
//                   halted time.
//
// An engine derives from StepCore, latches its controller's command into the
// cmd_* fields before load(), and runs the calls above in that order.  What
// differs between the engines — their controllers, and how each applies a
// hint deadline that has already passed — stays in the engine, before or
// after its call into the core; nothing here depends on which engine is
// calling.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/annotations.hpp"
#include "common/solver_stats.hpp"
#include "sim/flat_model.hpp"
#include "sim/soc_system.hpp"
#include "storage/comparator.hpp"

namespace hemp::flat {

struct StepCore {
  // --- Wiring, fixed for a run.
  const FlatTrace* trace = nullptr;
  FlatSc sc{};
  FlatProc pc{};
  IvSurface::Bound iv{};
  double t_end = 0.0;   ///< end of the simulated interval
  double dt_min = 0.0;  ///< reference tick: the step quantum
  double tau = 0.0;     ///< regulator restoration time constant
  double c_solar = 0.0, c_vdd = 0.0;
  double r_on = 0.0;  ///< bypass switch on-resistance

  // --- Node state.
  double t = 0.0;
  double v_s = 0.0, v_d = 0.0;
  std::size_t cur = 0;  ///< trace cursor

  // --- The controller's command, latched for the step.
  PowerPath cmd_path = PowerPath::kRegulated;
  double cmd_vdd = 0.0;
  double cmd_freq = 0.0;  // unit-lint: flattened kernel math on raw SI
  bool cmd_run = true;

  // --- The step's load (load()) and regulator status (integrate()).
  bool can_run = false;
  bool sc_ok = false;  ///< sc_supports(v_s, cmd_vdd), frozen for the step
  bool reg_ok = true;  ///< the regulator delivered over the last step
  double f_eff = 0.0;
  double p_load = 0.0;
  bool vmin_latch = false;
  bool fault_latch = false;
  bool was_running = false;

  // --- Totals.
  double cycles = 0.0;
  double harvested = 0.0;
  double delivered = 0.0;
  double halted = 0.0;
  double reg_loss = 0.0;
  double byp_loss = 0.0;
  int brownouts = 0;
  int timing_faults = 0;  ///< clamp episodes, not clamped ticks

  // --- Step accounting (flush_step_counts() once per run).
  solver_stats::StepCause step_cause = solver_stats::StepCause::kDeadline;
  std::array<std::uint64_t, solver_stats::kStepCauseCount> step_counts{};

  // --- Exact-key memos.  At steady state the rail voltage, effective
  // frequency, commanded rail and episode tick count repeat bit for bit
  // step after step, so the libm calls behind them are mostly hits; a key
  // mismatch recomputes, so results never change.
  PowMemo pow_memo{};
  double fmax_key = std::numeric_limits<double>::quiet_NaN();
  double fmax_val = 0.0;
  double pload_key_vd = std::numeric_limits<double>::quiet_NaN();
  double pload_key_f = 0.0;
  double pload_val = 0.0;
  double ratio_bounds_vdd = std::numeric_limits<double>::quiet_NaN();
  std::array<double, kScMaxRatios> ratio_bounds{};

  /// The step's load under reference tick semantics: the rail voltage gates
  /// the clock (with the vmin re-enable hysteresis on the bypass path) and
  /// the commanded frequency clamps at f_max(v_dd).  The reference counts
  /// clamped ticks; the engines count clamp episodes.
  HEMP_HOT void load() {
    if (v_d < pc.vmin) {
      vmin_latch = true;
    } else if (v_d >= pc.vmin + (cmd_path == PowerPath::kBypass
                                     ? kVminHysteresis
                                     : 0.0)) {
      vmin_latch = false;
    }
    can_run = cmd_run && !vmin_latch && v_d <= pc.vmax;
    p_load = 0.0;
    f_eff = 0.0;
    if (can_run) {
      const double v_fm = std::clamp(v_d, pc.vmin, pc.vmax);
      if (v_fm != fmax_key) {
        fmax_key = v_fm;
        fmax_val = proc_fmax(pc, v_fm);
      }
      f_eff = cmd_freq;
      bool clamped = false;
      if (f_eff > fmax_val) {
        clamped = true;
        f_eff = fmax_val;
      }
      if (clamped && !fault_latch) ++timing_faults;
      fault_latch = clamped;
      if (v_d != pload_key_vd || f_eff != pload_key_f) {
        pload_key_vd = v_d;
        pload_key_f = f_eff;
        pload_val = proc_power(pc, v_d, f_eff);
      }
      p_load = pload_val;
    } else {
      fault_latch = false;
      if (was_running && cmd_run) ++brownouts;
    }
    was_running = can_run;
    // v_s and cmd_vdd stay frozen until integrate(), so the settle block,
    // the watch bounds and the integrator share one envelope check.
    sc_ok = sc_supports(sc, v_s, cmd_vdd);
  }

  /// First bound on the step: the run-time accuracy ceiling (kRunDtCap
  /// while the clock runs, kDtMax otherwise), the end of the interval and
  /// the next trace knot.  The ceiling is the one place a step is labelled
  /// kDtCap; a step that ends at the interval end stays kDeadline.
  HEMP_HOT double open_dt() {
    using solver_stats::StepCause;
    step_cause = StepCause::kDeadline;
    double dt = t_end - t;
    const double ceiling = can_run ? kRunDtCap : kDtMax;
    if (ceiling < dt) {
      dt = ceiling;
      step_cause = StepCause::kDtCap;
    }
    const double knot = trace->next_knot(t, cur);
    if (knot > t && knot - t < dt) {
      dt = knot - t;
      step_cause = StepCause::kTraceKnot;
    }
    return dt;
  }

  /// Cut the step at an engine's timed controller event.
  HEMP_HOT void deadline(double& dt, double when) {
    if (when > t && when - t < dt) {
      dt = when - t;
      step_cause = solver_stats::StepCause::kDeadline;
    }
  }

  /// Watch the level where each solar-node comparator of `bank` toggles
  /// next (Comparator::next_toggle).
  HEMP_HOT void watch_bank(WatchAccum& ws, const ComparatorBank& bank) const {
    for (std::size_t i = 0; i < bank.size(); ++i) {
      ws.level(v_s, bank.next_toggle(i).value());
    }
  }

  /// Watch the solar and rail levels of a controller's step hint.
  HEMP_HOT void watch_hint(WatchAccum& ws, WatchAccum& wd, const SocStepHint& hint) const {
    for (std::size_t i = 0; i < hint.solar_watch_count; ++i) ws.level(v_s, hint.solar_watch[i]);
    for (std::size_t i = 0; i < hint.rail_watch_count; ++i) wd.level(v_d, hint.rail_watch[i]);
  }

  /// Finish the step length from the bound the engine has so far: the rail
  /// settle episode, the bypass swing cap, then the analytic watch bounds
  /// over the engine's levels (pre-filled into `ws` / `wd`) plus the core's
  /// own, quantized to whole reference ticks.  `g0` is the irradiance at t.
  HEMP_HOT double close_dt(double dt, double g0, WatchAccum& ws,
                           WatchAccum& wd) {
    using solver_stats::StepCause;
    const double e_t = 0.5 * c_vdd * cmd_vdd * cmd_vdd + p_load * dt_min;
    const double e_0 = 0.5 * c_vdd * v_d * v_d;

    // Regulated rail outside its settle band.  With the clock running, fine
    // steps (~2*tau) are still needed: p_load(v_d) and the effective
    // frequency clamp f_max(v_dd) must track the moving rail.  With the
    // clock gated nothing rides the rail, and the 3-regime map is exact in
    // closed form for any dt, so the step runs to the episode endpoint: the
    // tick where the rail first enters its band.  eta(vin) and the supports
    // check still freeze at step start, and relaxing the ~2*tau cap on a
    // supported episode degrades the max-perf duty-cycling nodes of the
    // equivalence suites (DESIGN.md 6h), so supported episodes keep it; the
    // closed form still lands them on the band-entry tick when that comes
    // sooner.  A pinned rail (regulator unsupported at the present solar
    // voltage, or stuck above target with no load to sink into) has no
    // endpoint and runs uncapped: the watch bounds alone guarantee crossing
    // detection.
    if (cmd_path == PowerPath::kRegulated) {
      const double v_eff = std::sqrt(2.0 * e_t / c_vdd);
      if (std::fabs(v_d - v_eff) > kRailBand) {
        const double settle_cap = kRailSettleFactor * tau;
        if (p_load > 0.0) {
          if (settle_cap < dt) {
            dt = settle_cap;
            step_cause = StepCause::kSettle;
          }
        } else {
          double dt_settle = std::numeric_limits<double>::infinity();
          if (sc_ok) {
            const double v_lo = v_eff - kRailBand;
            const double v_hi = v_eff + kRailBand;
            dt_settle = rail_settle_dt(e_0, e_t, dt_min, tau, 0.0, sc.rated,
                                       0.5 * c_vdd * v_lo * v_lo,
                                       0.5 * c_vdd * v_hi * v_hi);
            dt_settle = std::min(dt_settle, settle_cap);
          }
          if (dt_settle < dt) {
            dt = std::max(dt_settle, dt_min);
            step_cause = StepCause::kSettle;
          }
        }
      }
    }

    // G is linear between knots and dt never crosses one, so the extreme
    // irradiances over the step sit at its endpoints.
    const double g_end = trace->constant ? g0 : trace->at(t + dt, cur);
    const double g_hi = std::max(g0, g_end);

    // Bypass: the clock rides the shared node, so bound the rail swing per
    // step to keep the frequency error within ~1%.  The swing rate is the
    // net current into the merged node; near the operating equilibrium it
    // is tiny, so this is an accuracy cap, not a tick-scale clamp.  The
    // watch bounds walk the IV surface themselves (wb.iv is always set), so
    // only this cap reads the cell current and regulated steps skip it.
    double i_pv_now = 0.0;
    if (cmd_path != PowerPath::kRegulated) {
      i_pv_now = iv.cell_i(v_s, g_hi);
      if (can_run) {
        const double i_load = p_load / std::max(v_d, kWatchVFloor);
        const double i_net = std::fabs(i_pv_now - i_load);
        const double rate = (1.5 * i_net + 1e-6) / (c_solar + c_vdd);
        if (rate > 0.0 && kBypassDvCap / rate < dt) {
          dt = kBypassDvCap / rate;
          step_cause = StepCause::kWatchBound;
        }
      }
    }

    // The levels every engine watches: the regulator's ratio boundaries
    // (eta and the supports envelope change across them; the set moves only
    // with the commanded rail, so the divides are cached), the vmin trip
    // and, on the bypass path, vmax.
    if (cmd_path == PowerPath::kRegulated) {
      if (cmd_vdd != ratio_bounds_vdd) {
        for (std::size_t k = 0; k < sc.n_ratios; ++k) {
          ratio_bounds[k] = (cmd_vdd + sc.margin) / sc.ratios[k];
        }
        ratio_bounds_vdd = cmd_vdd;
      }
      for (std::size_t k = 0; k < sc.n_ratios; ++k) {
        ws.level(v_s, ratio_bounds[k]);
      }
    }
    if (cmd_run) {
      wd.level(v_d, vmin_latch && cmd_path == PowerPath::kBypass
                        ? pc.vmin + kVminHysteresis
                        : pc.vmin);
    }
    if (cmd_path == PowerPath::kBypass) wd.level(v_d, pc.vmax);

    WatchBoundIn wb;
    wb.dt = dt;
    wb.half_hyst = kCompHalfHyst;
    wb.v_floor = kWatchVFloor;
    wb.v_s = v_s;
    wb.v_d = v_d;
    wb.c_solar = c_solar;
    wb.c_vdd = c_vdd;
    wb.i_pv_now = i_pv_now;
    wb.p_load = p_load;
    wb.regulated = cmd_path == PowerPath::kRegulated;
    wb.conducting = cmd_path == PowerPath::kBypass && v_s > v_d;
    wb.cmd_vdd = cmd_vdd;
    wb.e_t = e_t;
    wb.e_0 = e_0;
    wb.tau = tau;
    wb.dt_ref = dt_min;
    wb.sc_ok = sc_ok;
    wb.sc = &sc;
    wb.iv = &iv;
    wb.g_hi = g_hi;
    wb.g_lo = std::min(g0, g_end);
    const double dt_watched = watch_bound_dt(wb, ws, wd);
    if (dt_watched < dt) {
      dt = dt_watched;
      step_cause = StepCause::kWatchBound;
    }

    // Quantize to whole reference ticks (flooring preserves every bound
    // above) so controller evaluations and the discrete rail map land on
    // the instants the fixed-step loop uses; the final step may be sub-tick.
    const double ticks = std::max(1.0, std::floor(dt / dt_min + 1e-6));
    return std::min(ticks * dt_min, t_end - t);
  }

  /// Advance both nodes over [t, t + dt] under the step's load, with the
  /// reference loop's energy bookkeeping.  `g_mid` is the irradiance at the
  /// step midpoint.
  HEMP_HOT void integrate(double dt, double g_mid) {
    double p_in = 0.0;   // regulator source-side draw for the solar solve
    double p_out = 0.0;  // regulator output power for the rail update
    reg_ok = true;
    if (cmd_path == PowerPath::kRegulated) {
      reg_ok = sc_ok;
      if (sc_ok) {
        // Closed-form restoration matching the reference tick map exactly
        // (flat::rail_regulated_episode).  The steady rail rides at
        // sqrt(vt^2 + 2*p_load*dt_ref/C), which keeps the commanded
        // frequency off the f_max clamp.
        const double e_t = 0.5 * c_vdd * cmd_vdd * cmd_vdd + p_load * dt_min;
        const double e_0 = 0.5 * c_vdd * v_d * v_d;
        const RailEpisode ep = rail_regulated_episode(
            e_0, e_t, dt, dt_min, tau, p_load, sc.rated, pow_memo);
        // Conversion losses priced per regime: the ramp pins p_out at
        // rated, the drain at zero, and the geometric phase transfers its
        // own average, so a one-step settle episode sees the eta profile
        // capped micro-steps would walk through.
        double e_in = 0.0;   // source-side energy drawn over the step
        double e_out = 0.0;  // regulator output energy over the step
        if (ep.t_ramp > 0.0) {
          const double eta = sc_efficiency(sc, v_s, cmd_vdd, sc.rated);
          if (eta > 0.0) {
            e_out += sc.rated * ep.t_ramp;
            e_in += sc.rated * ep.t_ramp / eta;
          } else {
            reg_ok = false;  // regulator stalled: no transfer this regime
          }
        }
        if (ep.t_decay > 0.0) {
          const double p_restore = (ep.e_end - ep.e_decay_0) / ep.t_decay;
          const double p_dec = std::clamp(p_load + p_restore, 0.0, sc.rated);
          if (p_dec > 0.0) {
            const double eta = sc_efficiency(sc, v_s, cmd_vdd, p_dec);
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
      reg_loss += (p_in - p_out) * dt;
    } else if (cmd_path == PowerPath::kBypass && v_s > v_d) {
      // The switch conducts solar -> rail.  The discrete reference update
      // rings at tau_RC ~ R*C_parallel; the merged quasi-steady limit is
      // charge-conserving with the same energy.
      const BypassStepResult r = integrate_bypass_merged(
          iv, c_solar, c_vdd, r_on, v_s, v_d, dt, g_mid, p_load, kWatchVFloor);
      if (r.conducted) {
        harvested += dt * r.p_harvest_avg;
        byp_loss += r.i_r * r.i_r * r_on * dt;
        return;  // the merged solve integrated both nodes
      }
      // Diode would block: integrate the nodes detached (p_in stays 0).
    }
    harvested += dt * integrate_solar(iv, c_solar, v_s, dt, g_mid, p_in);
    double e_d = 0.5 * c_vdd * v_d * v_d + (p_out - p_load) * dt;
    if (e_d < 0.0) e_d = 0.0;
    v_d = std::sqrt(2.0 * e_d / c_vdd);
  }

  /// Count the step under its cause and add its cycles, delivered energy
  /// and halted time.
  HEMP_HOT void account(double dt) {
    ++step_counts[static_cast<std::size_t>(step_cause)];
    if (can_run) {
      cycles += f_eff * dt;
      delivered += p_load * dt;
    } else if (cmd_run) {
      halted += dt;
    }
  }

  /// Flush the run's step counts to solver_stats (one add per cause).
  void flush_step_counts() const {
    for (int c = 0; c < solver_stats::kStepCauseCount; ++c) {
      solver_stats::count_steps(static_cast<solver_stats::StepCause>(c),
                                step_counts[static_cast<std::size_t>(c)]);
    }
  }
};

}  // namespace hemp::flat
