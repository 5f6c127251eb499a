// Shared surface-only model layer for the stepped simulation engines.
//
// Both event-driven engines — the fleet batch kernel (fleet/batch_kernel.cpp)
// and the single-node fast path (sim/fast_soc.cpp) — integrate the same
// closed forms over the same precomputed surfaces instead of invoking the
// exact component models per tick:
//
//   * FlatPv / pv_current      — safeguarded warm-started Newton on the
//     single-diode KCL (ctor/surface-build only; the stepped loops read the
//     sampled IvSurface instead);
//   * IvSurface                — terminal-current i(v, g) sampled per
//     pv-scale knot, read bilinearly with an in-cell Jacobian;
//   * MppSurface               — (pv_scale, irradiance) -> (Vmpp, Pmpp)
//     bilinear grids with photocurrent-limited low-light extrapolation;
//   * FlatSc / FlatProc        — allocation- and throw-free mirrors of the
//     switched-cap regulator and the processor speed/power models;
//   * FlatTrace                — the irradiance profile pre-sampled onto a
//     knot grid (linear between knots, so extrema sit at interval endpoints
//     and knots double as "trace may kink here" step bounds);
//   * rail_regulated_step      — the exact piecewise 3-regime closed form of
//     the reference loop's discrete regulated-rail map;
//   * integrate_solar / integrate_bypass_merged — implicit-midpoint node
//     integrators over the IV surface;
//   * WatchAccum / watch_bound_dt — direction-resolved analytic
//     no-late-detection step bounds for voltage watch levels.
//
// Everything here mirrors the corresponding exact component (PvCell,
// SwitchedCapRegulator, SpeedModel/PowerModel, SocSystem's tick map); the
// equivalence suites in tests/fleet and tests/sim are the guardrails that
// keep the mirrors honest.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "common/interpolation.hpp"
#include "common/units.hpp"
#include "harvester/light_environment.hpp"
#include "harvester/pv_cell.hpp"
#include "processor/processor.hpp"
#include "regulator/switched_cap.hpp"

namespace hemp::flat {

// ---------------------------------------------------------------------------
// Event-stepping knob defaults shared by both engines (see DESIGN.md).
// ---------------------------------------------------------------------------

/// Hard ceiling on one step.  1 ms is safe only because every *accuracy*
/// limit is enforced by its own bound (rail settle episodes, bypass swing
/// cap, watch bounds, knot-exact trace stepping): the ceiling is a backstop,
/// not the accuracy mechanism.  The naive raise without those bounds breaks
/// the modal-equivalence suites — see DESIGN.md 6h.
inline constexpr double kDtMax = 1e-3;
/// Accuracy ceiling on every step the processor clock is running: f_eff and
/// p_load are frozen over a step, so long running steps integrate stale
/// load power.  Applied to *all* can_run steps — an experiment letting
/// regulated in-band rails coast at kDtMax (the rail sits at the tick map's
/// fixed point there) drifted cycle counts past the modal-equivalence
/// tolerances and was reverted; only gated/halted nodes coast at kDtMax.
inline constexpr double kRunDtCap = 250e-6;
inline constexpr double kRailBand = 2e-3;     ///< |v_dd - target| band that ...
inline constexpr double kRailSettleFactor = 2.0;  ///< ... caps dt at this * tau
inline constexpr double kBypassDvCap = 16e-3;  ///< max rail swing/step in bypass
inline constexpr double kVminHysteresis = 5e-3;  ///< re-enable band above Vmin
inline constexpr double kWatchVFloor = 0.05;  ///< discharge-current bound floor
/// Half of the ComparatorBank's default 5 mV hysteresis band: crossings must
/// be detected before the node leaves the band, so this is both the watch
/// overshoot allowance and the threshold offset for direction resolution.
inline constexpr double kCompHalfHyst = 0.0025;
inline constexpr double kWatchDeadband = 1e-3;  ///< keeps dt finite at
                                                ///< equilibria; must stay under
                                                ///< the comparator half-
                                                ///< hysteresis so crossings are
                                                ///< caught inside their band

// ---------------------------------------------------------------------------
// PV cell.
// ---------------------------------------------------------------------------

/// Flattened single-diode cell constants.
struct FlatPv {
  double iph_full = 0.0;  ///< photocurrent at full sun
  double i0 = 0.0;        ///< diode saturation current
  double nvt = 0.0;       ///< junction-stack thermal scale Ns * n * Vt
  double rs = 0.0;
  double rsh = 0.0;
};

FlatPv make_flat_pv(const PvCellParams& p);

/// Terminal current of the single-diode cell: safeguarded Newton on the same
/// implicit KCL PvCell::current solves with Brent, including its edge cases.
/// `warm` carries the previous solution as the start iterate.
double pv_current(const FlatPv& pv, double v, double g, double& warm);  // unit-lint: flattened kernel math on raw SI

// ---------------------------------------------------------------------------
// Switched-capacitor regulator.
// ---------------------------------------------------------------------------

/// Flattened switched-cap constants (ratios descending, as in the params).
inline constexpr std::size_t kScMaxRatios = 8;
struct FlatSc {
  std::array<double, kScMaxRatios> ratios{};
  std::size_t n_ratios = 0;
  double margin = 0.0;
  double control_power = 0.0;  // unit-lint: flattened kernel math on raw SI
  double switch_loss = 0.0;
  double min_out = 0.0;
  double rated = 0.0;
};

FlatSc make_flat_sc(const SwitchedCapParams& p);

/// Mirrors Regulator::supports via the switched-cap output_range.
inline bool sc_supports(const FlatSc& sc, double vin, double vout) {
  return vout >= sc.min_out && vout <= sc.ratios[0] * vin - sc.margin;
}

/// Mirrors SwitchedCapRegulator::active_ratio (assumes sc_supports holds).
inline double sc_active_ratio(const FlatSc& sc, double vin, double vout) {
  double best = 0.0;
  for (std::size_t k = 0; k < sc.n_ratios; ++k) {
    const double r = sc.ratios[k];
    if (r * vin >= vout + sc.margin) best = r;
  }
  return best;
}

/// Mirrors SwitchedCapRegulator::efficiency (assumes sc_supports holds).
inline double sc_efficiency(const FlatSc& sc, double vin, double vout,
                            double pout) {
  if (pout == 0.0) return 0.0;
  const double r = sc_active_ratio(sc, vin, vout);
  if (r <= 0.0) return 0.0;
  const double eta_lin = vout / (r * vin);
  const double loss = sc.control_power + sc.switch_loss * pout;
  const double eta_sw = pout / (pout + loss);
  return eta_lin * eta_sw;
}

// ---------------------------------------------------------------------------
// Processor speed/power model.
// ---------------------------------------------------------------------------

/// Flattened speed/power constants (mirrors SpeedModel's calibration).
struct FlatProc {
  double vth = 0.0;
  double alpha = 0.0;
  double gain = 0.0;      ///< alpha-power-law prefactor
  double onset = 0.0;     ///< vth + near-threshold margin
  double f_onset = 0.0;   ///< alpha-law frequency at the onset voltage
  double sub_slope = 0.0;
  double vmin = 0.0;
  double vmax = 0.0;
  double ceff = 0.0;
  double leak_base = 0.0;
  double dibl = 0.0;
};

FlatProc make_flat_proc(const Processor& proc);

/// Mirrors SpeedModel::max_frequency for v inside [vmin, vmax].
inline double proc_fmax(const FlatProc& p, double v) {
  if (v >= p.onset) return p.gain * std::pow(v - p.vth, p.alpha) / v;
  return p.f_onset * std::exp((v - p.onset) / p.sub_slope);
}

inline double proc_leak(const FlatProc& p, double v) {
  return v * p.leak_base * std::exp(v / p.dibl);
}

/// Mirrors PowerModel::total_power.
inline double proc_power(const FlatProc& p, double v, double f) {  // unit-lint: flattened kernel math on raw SI
  return p.ceff * v * v * f + proc_leak(p, v);
}

/// Mirrors Processor::max_power (full speed at v).
inline double proc_max_power(const FlatProc& p, double v) {  // unit-lint: flattened kernel math on raw SI
  return proc_power(p, v, proc_fmax(p, v));
}

/// Mirrors Processor::energy_per_cycle at full speed.
inline double proc_epc(const FlatProc& p, double v) {
  return p.ceff * v * v + proc_leak(p, v) / proc_fmax(p, v);
}

// ---------------------------------------------------------------------------
// Flattened irradiance trace: the controller-facing std::function profile is
// pre-sampled onto a knot grid (uniform coverage plus every breakpoint,
// double-sampled just around each so steps survive the linearization).
// ---------------------------------------------------------------------------

struct FlatTrace {
  bool constant = false;
  double g_const = 0.0;
  std::vector<double> ts;
  std::vector<double> gs;

  /// Greedy knot dropping under an explicit absorbed-energy error budget.
  ///
  /// Repeatedly removes the knot whose removal perturbs the trace the least —
  /// the triangle area |∫(chord - segments)| it spans with its neighbours —
  /// until the *cumulative* removed area would exceed `eps` (in sun·seconds).
  /// The total absorbed-irradiance error of the coarsened trace against the
  /// original piecewise-linear integral is bounded by the sum of removed
  /// areas, hence by `eps`.  The greedy removal order is data-determined and
  /// independent of `eps` (larger budgets just remove a longer prefix of the
  /// same sequence), so the surviving knot count is monotone non-increasing
  /// in `eps`.  Sharp features survive on their own: dropping a breakpoint
  /// shoulder stretches a steep ramp across a long interval, a huge area the
  /// budget refuses long before it trims the cheap near-collinear knots of
  /// the uniform grid.  Endpoints are always kept; `eps <= 0` is a no-op.
  void coarsen(double eps);

  /// Linear interpolation with a monotone-biased cursor hint.
  [[nodiscard]] double at(double t, std::size_t& cur) const {
    if (constant) return g_const;
    while (cur + 1 < ts.size() && ts[cur + 1] <= t) ++cur;
    while (cur > 0 && ts[cur] > t) --cur;
    if (t <= ts.front()) return gs.front();
    if (cur + 1 >= ts.size()) return gs.back();
    const double t0 = ts[cur];
    const double t1 = ts[cur + 1];
    const double frac = t1 > t0 ? (t - t0) / (t1 - t0) : 0.0;
    return gs[cur] + frac * (gs[cur + 1] - gs[cur]);
  }

  /// First knot strictly after `t` (infinity when none / constant).
  [[nodiscard]] double next_knot(double t, std::size_t& cur) const {
    if (constant) return std::numeric_limits<double>::infinity();
    while (cur + 1 < ts.size() && ts[cur + 1] <= t) ++cur;
    while (cur > 0 && ts[cur] > t) --cur;
    for (std::size_t k = cur; k < ts.size(); ++k) {
      if (ts[k] > t + 1e-15) return ts[k];
    }
    return std::numeric_limits<double>::infinity();
  }
};

FlatTrace flatten_trace(const IrradianceTrace& trace, double t_end);
FlatTrace flatten_constant(double g);

// ---------------------------------------------------------------------------
// Terminal-current surface i(v, g), sampled per pv-scale knot.
// ---------------------------------------------------------------------------

struct IvSurface {
  std::vector<double> s_knots;  ///< uniform pv-scale knots (>= 1)
  std::vector<double> vals;     ///< [scale][v][g], g fastest
  int v_knots = 0, g_knots = 0;
  double dv = 0.0, dg = 0.0;

  /// One node's view: two bracketing pv-scale slices plus a blend weight.
  struct Bound {
    const double* lo = nullptr;
    const double* hi = nullptr;
    double w = 0.0;  ///< blend weight of the hi slice
    int v_knots = 0, g_knots = 0;
    double dv = 0.0, dg = 0.0;

    /// Stepped-loop cell evaluation: bilinear (v, g) read, scale-blended.
    /// Optionally returns the in-cell d(i)/d(v) slope for the implicit
    /// midpoint Jacobian.
    double cell_i(double v, double g, double* didv = nullptr) const {
      double x = v / dv;
      double y = g / dg;
      x = std::clamp(x, 0.0, static_cast<double>(v_knots - 1) - 1e-9);
      y = std::clamp(y, 0.0, static_cast<double>(g_knots - 1) - 1e-9);
      const auto xi = static_cast<std::size_t>(x);
      const auto yi = static_cast<std::size_t>(y);
      const double fx = x - static_cast<double>(xi);
      const double fy = y - static_cast<double>(yi);
      const std::size_t a = xi * static_cast<std::size_t>(g_knots) + yi;
      const std::size_t b = a + static_cast<std::size_t>(g_knots);
      const double lo0 = lo[a] + (lo[a + 1] - lo[a]) * fy;
      const double lo1 = lo[b] + (lo[b + 1] - lo[b]) * fy;
      const double hi0 = hi[a] + (hi[a + 1] - hi[a]) * fy;
      const double hi1 = hi[b] + (hi[b + 1] - hi[b]) * fy;
      const double i0 = lo0 + (hi0 - lo0) * w;
      const double i1 = lo1 + (hi1 - lo1) * w;
      if (didv != nullptr) *didv = (i1 - i0) / dv;
      return i0 + (i1 - i0) * fx;
    }

    /// Fixed-g row cursor for the Newton solves: within one implicit solve
    /// the irradiance is constant and successive iterates almost always stay
    /// inside one v-cell, so the eight grid loads and the g/scale blends can
    /// be reused across iterations.  cell_i_row computes exactly the same
    /// expressions as cell_i — results are bit-identical, the cursor is a
    /// pure load-elision.
    struct RowCursor {
      std::size_t yi = 0;   ///< g-cell index (fixed for the solve)
      double fy = 0.0;      ///< g-cell fraction
      std::ptrdiff_t xi = -1;  ///< cached v-cell; -1 = nothing cached
      double i0 = 0.0, i1 = 0.0;  ///< blended currents at the cell's v-knots
    };

    RowCursor bind_row(double g) const {
      RowCursor rc;
      double y = g / dg;
      y = std::clamp(y, 0.0, static_cast<double>(g_knots - 1) - 1e-9);
      rc.yi = static_cast<std::size_t>(y);
      rc.fy = y - static_cast<double>(rc.yi);
      return rc;
    }

    double cell_i_row(double v, RowCursor& rc, double* didv = nullptr) const {
      double x = v / dv;
      x = std::clamp(x, 0.0, static_cast<double>(v_knots - 1) - 1e-9);
      const auto xi = static_cast<std::ptrdiff_t>(x);
      const double fx = x - static_cast<double>(xi);
      if (xi != rc.xi) {
        const std::size_t a =
            static_cast<std::size_t>(xi) * static_cast<std::size_t>(g_knots) +
            rc.yi;
        const std::size_t b = a + static_cast<std::size_t>(g_knots);
        const double lo0 = lo[a] + (lo[a + 1] - lo[a]) * rc.fy;
        const double lo1 = lo[b] + (lo[b + 1] - lo[b]) * rc.fy;
        const double hi0 = hi[a] + (hi[a + 1] - hi[a]) * rc.fy;
        const double hi1 = hi[b] + (hi[b + 1] - hi[b]) * rc.fy;
        rc.xi = xi;
        rc.i0 = lo0 + (hi0 - lo0) * w;
        rc.i1 = lo1 + (hi1 - lo1) * w;
      }
      if (didv != nullptr) *didv = (rc.i1 - rc.i0) / dv;
      return rc.i0 + (rc.i1 - rc.i0) * fx;
    }
  };

  [[nodiscard]] Bound bind(double pv_scale) const;
};

/// Sample the fast Newton solve over (v, g) for each pv-scale knot.  `base`
/// supplies every cell parameter except the short-circuit current, which is
/// scaled per knot.  `s_knots` must be uniformly spaced (or a single knot).
/// Equivalent to size_iv_surface followed by fill_iv_slice on every slice.
IvSurface build_iv_surface(std::vector<double> s_knots,
                           const PvCellParams& base, double v_max, int v_knots,
                           double g_max, int g_knots);

/// The grid of build_iv_surface with `vals` allocated but not yet solved.
IvSurface size_iv_surface(std::vector<double> s_knots, double v_max,
                          int v_knots, double g_max, int g_knots);

/// Solve pv-scale slice `slice` of a sized surface in place.  A slice reads
/// only the grid and writes only its own cells, so slices may be filled in
/// any order or concurrently, with bit-identical results.
void fill_iv_slice(IvSurface& iv, const PvCellParams& base, std::size_t slice);

// ---------------------------------------------------------------------------
// (pv_scale, irradiance) MPP surfaces: exact find_mpp, sampled once.
// ---------------------------------------------------------------------------

struct MppSurface {
  std::vector<double> s_knots, g_knots;
  std::optional<BilinearGrid> vmpp, pmpp;

  [[nodiscard]] double vmpp_at(double s, double g) const {
    if (g <= 0.0) return 0.0;
    return (*vmpp)(s, std::max(g, g_knots.front()));
  }

  [[nodiscard]] double pmpp_at(double s, double g) const {
    if (g <= 0.0) return 0.0;
    if (g < g_knots.front()) {
      // P_mpp ~ G at low light (photocurrent-limited): scale the edge column.
      return (*pmpp)(s, g_knots.front()) * (g / g_knots.front());
    }
    return (*pmpp)(s, g);
  }
};

/// Exact find_mpp sampled over linear pv-scale knots and log-spaced
/// irradiance knots (ctor-time only; the stepped loops read bilinearly).
/// Equivalent to size_mpp_surface followed by fill_mpp_row on every row.
MppSurface build_mpp_surface(const PvCellParams& base, double s_lo, double s_hi,
                             int s_count, double g_min, double g_max,
                             int g_count);

/// The knots and grids of build_mpp_surface, values not yet solved.
MppSurface size_mpp_surface(double s_lo, double s_hi, int s_count,
                            double g_min, double g_max, int g_count);

/// Solve pv-scale row `row` of a sized surface in place (independent rows,
/// like fill_iv_slice's slices).
void fill_mpp_row(MppSurface& surf, const PvCellParams& base, std::size_t row);

// ---------------------------------------------------------------------------
// Closed-form stepping primitives.
// ---------------------------------------------------------------------------

/// Advance the reference loop's discrete regulated-rail map by `dt` in closed
/// form and return the end-of-step rail energy.
///
/// The reference applies the load *before* computing the restore power
/// p_restore = (E_t - E_afterload)/tau, so one tick is the affine map
/// E' = E + (dt_ref/tau) * (E_t + p_load*dt_ref - E): plain Euler toward an
/// *effective* target `e_t` one tick of load energy above the commanded
/// energy.  The per-tick output clamp p_out in [0, rated] splits the map into
/// three regimes by the pre-tick energy e:
///   e <  e_hi : p_out pinned at rated    -> linear ramp up
///   e >  e_lo : p_out pinned at zero     -> linear drain at p_load
///   otherwise : unclamped Euler          -> geometric decay to e_t with
///               ratio (1 - dt_ref/tau) per tick — not exp(-dt/tau), whose
///               rate differs by ~10% at dt_ref/tau = 0.2
/// Both linear phases march monotonically into the middle band and the
/// geometric phase never leaves it, so whole ticks compose in closed form
/// phase by phase (per-tick regime choice uses the pre-tick energy, exactly
/// like the reference loop).  A final sub-tick remainder falls through as
/// geometric.
double rail_regulated_step(double e_0, double e_t, double dt, double dt_ref,
                           double tau, double p_load, double rated);

/// Closed-form settle horizon of the same 3-regime map: the time (a whole
/// number of reference ticks) after which the rail energy, starting from
/// `e_0`, first lands inside [e_band_lo, e_band_hi] around the effective
/// target `e_t` — i.e. when the settle transient is over.  Returns infinity
/// when the map can never reach the band: draining with zero load pins the
/// rail (the regulator cannot sink), and a zero-width ramp (rated == p_load)
/// pins it below.  A ramp tick can jump clean across a narrow band; the
/// returned time is then the tick that first reaches-or-crosses it, after
/// which the rail either sits inside the band or is pinned just past it —
/// in both cases the settle episode is over.  Both engines use this to take
/// one step to the episode endpoint instead of grinding capped micro-steps
/// through (or worse, *at*) a transient the map already solves exactly.
double rail_settle_dt(double e_0, double e_t, double dt_ref, double tau,
                      double p_load, double rated, double e_band_lo,
                      double e_band_hi);

/// Per-regime decomposition of one rail_regulated_step advance, for energy
/// accounting across a long settle episode.  The regulator output power is
/// piecewise simple over the step — pinned at `rated` on the ramp, pinned at
/// zero on the drain, and decaying from the regime boundary inside the
/// mid-band — so a caller that prices conversion losses (eta depends on
/// p_out) can integrate each regime under its own efficiency point instead
/// of smearing a rated-to-zero profile through one lookup.  Fields satisfy
/// t_ramp + t_drain + t_decay == dt and e_decay_0 is the rail energy
/// entering the geometric phase (== e_end when t_decay is zero).
struct RailEpisode {
  double e_end = 0.0;
  double t_ramp = 0.0;
  double t_drain = 0.0;
  double t_decay = 0.0;
  double e_decay_0 = 0.0;
};

/// One-entry exact-key memo for the episode's rho^k geometric factor.  The
/// decay ratio rho is a scenario constant and the tick count k repeats on
/// steady stepping cadences, so most steps reuse the previous std::pow
/// result; a key mismatch recomputes, keeping results bit-identical.
struct PowMemo {
  double base = -1.0;  ///< never matches a real rho in (0, 1)
  double exp = -1.0;
  double val = 1.0;
};

/// Same closed form as rail_regulated_step (bit-identical e_end), with the
/// per-regime time split exposed.  `memo`, when given, caches the rho^k
/// evaluation across calls.
RailEpisode rail_regulated_episode(double e_0, double e_t, double dt,
                                   double dt_ref, double tau, double p_load,
                                   double rated, PowMemo* memo = nullptr);

/// Advance the solar node by dt under a constant source-side draw `p_in`,
/// harvesting from the cell at the midpoint irradiance (implicit midpoint on
/// the stiff node).  Returns the average harvested power over the step.
double integrate_solar(const IvSurface::Bound& iv, double c_solar, double& v_s,
                       double dt, double g_mid, double p_in);

/// One step of the conducting-bypass merged-node quasi-steady limit.  When
/// the diode would block (i_r < 0) nothing is mutated and the caller should
/// integrate the nodes detached.  Returns the average harvested power and
/// the quasi-steady switch current.
struct BypassStepResult {
  bool conducted = false;
  double p_harvest_avg = 0.0;
  double i_r = 0.0;
};
BypassStepResult integrate_bypass_merged(const IvSurface::Bound& iv,
                                         double c_solar, double c_vdd,
                                         double r_on, double& v_s, double& v_d,
                                         double dt, double g_mid, double p_load,
                                         double v_floor);

// ---------------------------------------------------------------------------
// Analytic watch bounds for event stepping.
// ---------------------------------------------------------------------------

/// Direction-resolved distance to the nearest armed watch level, floored so
/// equilibrium at a level cannot collapse dt (level checks re-fire at every
/// eval anyway).  Splitting up/down matters: each direction is bounded by
/// the only rate that can move the node that way.
struct WatchAccum {
  double up = std::numeric_limits<double>::infinity();
  double down = std::numeric_limits<double>::infinity();
  double deadband = kWatchDeadband;

  void level(double v, double trigger) {
    if (trigger >= v) {
      up = std::min(up, std::max(trigger - v, deadband));
    } else {
      down = std::min(down, std::max(v - trigger, deadband));
    }
  }
};

/// Inputs of watch_bound_dt: the physics of the step about to be taken.
struct WatchBoundIn {
  double dt = 0.0;         ///< bound so far (timed events already applied)
  double half_hyst = 0.0;  ///< comparator half-hysteresis overshoot allowance
  double v_floor = kWatchVFloor;
  double v_s = 0.0, v_d = 0.0;
  double c_solar = 0.0, c_vdd = 0.0;
  double i_pv_now = 0.0;  ///< cell current at (v_s, max irradiance on step)
  double p_load = 0.0;
  bool regulated = false;   ///< commanded path is the regulator
  bool conducting = false;  ///< bypass commanded and v_s > v_d
  double cmd_vdd = 0.0;
  double e_t = 0.0, e_0 = 0.0;  ///< effective target / present rail energy
  double tau = 0.0, dt_ref = 0.0;
  bool sc_ok = false;  ///< sc_supports(v_s, cmd_vdd)
  const FlatSc* sc = nullptr;
  /// Optional IV surface view + step-max irradiance: lets the upward bounds
  /// walk the per-cell crossing time (solar_rise_dt) instead of freezing
  /// the photocurrent at its initial (highest-on-path) value.
  const IvSurface::Bound* iv = nullptr;
  double g_hi = 0.0;
  double g_lo = 0.0;  ///< step-min irradiance (for downward crossings)
};

/// First-crossing-time lower bound for an upward path: the time for a node
/// of capacitance `c_eff` at `v0` to reach `v_to` when charged by the
/// surface current i(v, g) against a constant opposing draw `i_opp`,
/// following C dv/dt = i(v, g) - i_opp.  i is piecewise-linear in v
/// (bilinear surface at fixed g); each v-grid cell is charged at its
/// fastest in-cell rate — a conservative bound that costs one surface
/// lookup per cell instead of the exact log integral — and after a few
/// cells a single worst-case-rate term closes the remainder (stalls, the
/// case the walk exists for, reveal themselves near the start).  Returns
/// +inf when the net current stalls before `v_to` (the path converges to an
/// equilibrium below the level), and caps the walk at `dt_cap` — callers
/// min() the result anyway, so when even the initial (path-max) rate cannot
/// cover the distance inside the cap the walk early-outs to `dt_cap`.
/// Because i is decreasing in v and increasing in g, evaluating at the
/// step-max irradiance and a path-min opposing draw keeps the result a
/// valid lower bound on the true crossing time.
double solar_rise_dt(const IvSurface::Bound& iv, double c_eff, double v0,
                     double v_to, double g, double i_opp, double dt_cap);

/// Downward twin of solar_rise_dt: time to fall from `v0` to `v_to` under a
/// constant discharging draw `i_drv` opposed by the surface photocurrent
/// i(v, g), following C dv/dt = i(v, g) - i_drv.  Evaluating at the
/// step-min irradiance and a path-max draw keeps the result a valid lower
/// bound on the true crossing time; returns +inf when the photocurrent
/// balances the draw before `v_to` (the node parks at an equilibrium).
double solar_fall_dt(const IvSurface::Bound& iv, double c_eff, double v0,
                     double v_to, double g, double i_drv, double dt_cap);

/// Tighten `in.dt` by the analytic no-late-detection bounds
/// dt <= C * dist / i_max for both nodes.  Within a step every voltage is
/// monotone (autonomous scalar dynamics under constant step inputs), so
/// endpoint sampling can never *miss* a crossing — these bounds only control
/// detection latency, keeping it inside one comparator hysteresis band.
double watch_bound_dt(const WatchBoundIn& in, const WatchAccum& ws,
                      const WatchAccum& wd);

}  // namespace hemp::flat
