#include "sim/flat_model.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/solver_stats.hpp"
#include "harvester/iv_curve.hpp"

namespace hemp::flat {

// ---------------------------------------------------------------------------
// PV cell.
// ---------------------------------------------------------------------------

FlatPv make_flat_pv(const PvCellParams& p) {
  FlatPv pv;
  pv.iph_full = p.isc_full_sun.value();
  pv.nvt = p.series_junctions * p.ideality * p.thermal_voltage.value();
  pv.rs = p.series_resistance.value();
  pv.rsh = p.shunt_resistance.value();
  // Mirrors PvCell::saturation_current for the (possibly scaled) Isc.
  const double voc = p.voc_full_sun.value();
  pv.i0 = (pv.iph_full - voc / pv.rsh) / std::expm1(voc / pv.nvt);
  return pv;
}

namespace {

/// The safeguarded Newton behind pv_current, run on W independent terminal
/// voltages at one irradiance in lockstep: each lane repeats the scalar
/// solve's arithmetic exactly (and stops exactly where it would), while the
/// lanes' exp -> divide chains, each latency-bound on its own, overlap.
/// W = 1 is pv_current itself.  `warm[l]` is lane l's start iterate and
/// receives its solution, as pv_current's `warm` does.
template <int W>
void pv_current_lanes(const FlatPv& pv, const double* v, double g, double* warm,
                      double* out) {
  const double iph = pv.iph_full * g;
  std::array<double, W> lo{}, hi{}, i{};
  std::array<bool, W> live{}, lo_probed{};
  int n_live = 0;
  for (int l = 0; l < W; ++l) {
    if (iph == 0.0) {
      out[l] = 0.0;
      continue;
    }
    // Short-circuit early-out with no exp: f(iph) = -(i0*expm1(vj/nvt) +
    // vj/Rsh) with vj = v + iph*Rs, and the bracketed term is strictly
    // increasing through zero, so f(iph) >= 0 exactly when vj <= 0.
    if (v[l] + iph * pv.rs <= 0.0) {
      out[l] = iph;
      continue;
    }
    lo[l] = -iph;
    hi[l] = iph;
    i[l] = std::clamp(warm[l], lo[l], hi[l]);
    live[l] = true;
    ++n_live;
  }
  const auto finish = [&](int l) {
    warm[l] = i[l];
    out[l] = std::max(i[l], 0.0);
    live[l] = false;
    --n_live;
  };
  for (int iter = 0; iter < 60 && n_live > 0; ++iter) {
    std::array<double, W> vj{}, e{};
    for (int l = 0; l < W; ++l) {
      if (!live[l]) continue;
      vj[l] = v[l] + i[l] * pv.rs;
      e[l] = std::exp(vj[l] / pv.nvt);
    }
    for (int l = 0; l < W; ++l) {
      if (!live[l]) continue;
      const double fi = iph - pv.i0 * (e[l] - 1.0) - vj[l] / pv.rsh - i[l];
      if (fi > 0.0) {
        lo[l] = i[l];
      } else {
        hi[l] = i[l];
      }
      const double dfi = -pv.i0 * e[l] * pv.rs / pv.nvt - pv.rs / pv.rsh - 1.0;
      double next = i[l] - fi / dfi;
      if (!(next > lo[l] && next < hi[l])) {
        if (next <= lo[l] && !lo_probed[l] && lo[l] == -iph) {
          // Newton wants to leave the physical bracket downward: the root may
          // sit below -iph (terminal voltage above open circuit).  One probe
          // of the boundary settles it instead of a long bisection collapse.
          lo_probed[l] = true;
          const double vjl = v[l] - iph * pv.rs;
          if (iph - pv.i0 * std::expm1(vjl / pv.nvt) - vjl / pv.rsh + iph <
              0.0) {
            out[l] = 0.0;
            live[l] = false;
            --n_live;
            continue;
          }
        }
        next = 0.5 * (lo[l] + hi[l]);
      }
      const bool converged = std::fabs(next - i[l]) < 1e-12;
      i[l] = next;
      if (converged) finish(l);
    }
  }
  // Lanes still running after the iteration cap keep their last iterate.
  for (int l = 0; l < W && n_live > 0; ++l) {
    if (live[l]) finish(l);
  }
}

/// Fill irradiance knots [0, g_count) of rows [vi, vi + W) of one surface
/// slice (`out`, g fastest), their solves in lockstep.  Rows in v are
/// independent: the warm start chains only along g, from zero at each row's
/// g = 0 end, so a knot's value does not depend on g_count.
template <int W>
void solve_iv_rows(const FlatPv& pv, const IvSurface& iv, int vi, double* out,
                   int g_count) {
  std::array<double, W> v{}, warm{}, cur{};
  for (int l = 0; l < W; ++l) v[l] = (vi + l) * iv.dv;
  for (int gi = 0; gi < g_count; ++gi) {
    pv_current_lanes<W>(pv, v.data(), gi * iv.dg, warm.data(), cur.data());
    for (int l = 0; l < W; ++l) out[(vi + l) * iv.g_knots + gi] = cur[l];
  }
}

}  // namespace

// hemp-analyzer: allow(unit-boundary) — flattened kernel math on raw SI
double pv_current(const FlatPv& pv, double v, double g, double& warm) {
  double out = 0.0;
  pv_current_lanes<1>(pv, &v, g, &warm, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Switched-cap regulator / processor flattening.
// ---------------------------------------------------------------------------

FlatSc make_flat_sc(const SwitchedCapParams& p) {
  FlatSc sc;
  sc.n_ratios = std::min(p.ratios.size(), sc.ratios.size());
  for (std::size_t i = 0; i < sc.n_ratios; ++i) sc.ratios[i] = p.ratios[i];
  sc.margin = p.regulation_margin.value();
  sc.control_power = p.control_power.value();
  sc.switch_loss = p.switching_loss_factor;
  sc.min_out = p.min_output.value();
  sc.rated = p.max_load.value();
  return sc;
}

FlatProc make_flat_proc(const Processor& proc) {
  const SpeedModelParams& sp = proc.speed().params();
  const PowerModelParams& pp = proc.power_model().params();
  FlatProc p;
  p.vth = sp.threshold.value();
  p.alpha = sp.alpha;
  // Same calibration as SpeedModel's constructor: gain from the reference
  // (voltage, frequency) point.
  const double vref = sp.reference_voltage.value();
  p.gain = sp.reference_frequency.value() * vref /
           std::pow(vref - p.vth, p.alpha);
  p.onset = p.vth + sp.near_threshold_margin.value();
  p.f_onset = p.gain * std::pow(p.onset - p.vth, p.alpha) / p.onset;
  p.sub_slope = sp.subthreshold_slope.value();
  p.vmin = sp.min_operating_voltage.value();
  p.vmax = sp.max_operating_voltage.value();
  p.ceff = pp.effective_capacitance.value();
  p.leak_base = pp.leakage_base.value();
  p.dibl = pp.dibl_voltage.value();
  return p;
}

// ---------------------------------------------------------------------------
// Trace flattening.
// ---------------------------------------------------------------------------

FlatTrace flatten_trace(const IrradianceTrace& trace, double t_end) {
  FlatTrace flat;
  // Breakpoints in range, sorted (the IrradianceTrace ctor sorts and dedups).
  std::vector<double> bps;
  bps.reserve(trace.breakpoints().size());
  for (const Seconds bp : trace.breakpoints()) {
    const double b = bp.value();
    if (b >= -1e-9 && b <= t_end + 1e-9) bps.push_back(b);
  }
  // Two ascending runs, merged rather than sorted: the uniform knots, and
  // each breakpoint's ±1 ns triple.
  std::vector<double> uniform;
  constexpr int kUniform = 256;
  uniform.reserve(kUniform + 1);
  std::size_t next_bp = 0;  // first breakpoint >= u (u only grows)
  for (int i = 0; i <= kUniform; ++i) {
    const double u = t_end * i / kUniform;
    while (next_bp < bps.size() && bps[next_bp] < u) ++next_bp;
    // A uniform knot inside a breakpoint's ±1 ns triple would land within
    // nanoseconds of the triple's own samples — a near-duplicate knot the
    // event stepper pays a whole step for.  The triple already covers the
    // kink, so skip the uniform knot instead.
    if (next_bp < bps.size() && bps[next_bp] - u <= 1e-9) continue;
    if (next_bp > 0 && u - bps[next_bp - 1] <= 1e-9) continue;
    uniform.push_back(u);
  }
  std::vector<double> triples;
  triples.reserve(3 * bps.size());
  for (const double b : bps) {
    triples.push_back(std::clamp(b - 1e-9, 0.0, t_end));
    triples.push_back(std::clamp(b, 0.0, t_end));
    triples.push_back(std::clamp(b + 1e-9, 0.0, t_end));
  }
  // Triples only interleave when two breakpoints lie within 2 ns.
  if (!std::is_sorted(triples.begin(), triples.end())) {
    std::sort(triples.begin(), triples.end());
  }
  std::vector<double> knots(uniform.size() + triples.size());
  std::merge(uniform.begin(), uniform.end(), triples.begin(), triples.end(),
             knots.begin());
  knots.erase(std::unique(knots.begin(), knots.end()), knots.end());
  // Triples of breakpoints closer than 2 ns to each other can still collide
  // sub-nanosecond; merge anything tighter than a quarter of the triple pitch
  // (keeping the earlier knot) so no surviving gap costs a wasted step.
  knots.erase(std::unique(knots.begin(), knots.end(),
                          [](double a, double b) { return b - a < 0.25e-9; }),
              knots.end());
  flat.ts = std::move(knots);
  flat.gs.reserve(flat.ts.size());
  for (const double t : flat.ts) flat.gs.push_back(trace.at(Seconds(t)));
  return flat;
}

void FlatTrace::coarsen(double eps) {
  if (constant || eps <= 0.0 || ts.size() <= 2) return;
  HEMP_REQUIRE(gs.size() == ts.size() && ts.size() <= (std::size_t{1} << 31),
               "FlatTrace::coarsen: knot arrays mismatched or too long");
  const auto n = static_cast<std::uint32_t>(ts.size());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Each knot's key: the triangle area its removal would sweep (the L1
  // distance between the current polyline and the one with the knot
  // dropped), then its index.  The greedy removes the live interior knot of
  // least key while the running total of removed areas stays within eps, so
  // the removal sequence — and with it the eps-monotone prefix property — is
  // fully deterministic, ties included.  Areas are >= +0.0 (fabs), and such
  // doubles order exactly as their bit patterns, so the tree below compares
  // them as integers.
  struct Key {
    std::uint64_t area;  // bit pattern of the area
    std::uint32_t knot;
  };
  const std::uint64_t kInfBits = std::bit_cast<std::uint64_t>(kInf);
  // Winner (tournament) tree: leaf slot `leaves + i` holds knot i's key, and
  // each inner node the least key of its subtree, so the root is the
  // greedy's next removal.  Endpoints, removed knots and padding slots are
  // keyed +inf and never win while a live knot remains.
  std::uint32_t leaves = 1;
  while (leaves < n) leaves *= 2;
  std::vector<Key> tree(2 * static_cast<std::size_t>(leaves));
  for (std::uint32_t i = 0; i < leaves; ++i) tree[leaves + i] = {kInfBits, i};
  // Doubly linked list over the knot indices; the endpoints are never
  // unlinked, so no sentinel is needed.
  std::vector<std::uint32_t> prev(n), next(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    prev[i] = i - 1;
    next[i] = i + 1;
  }
  const auto tri = [&](std::uint32_t i) {
    const std::uint32_t p = prev[i];
    const std::uint32_t q = next[i];
    return 0.5 * std::fabs((ts[q] - ts[p]) * (gs[i] - gs[p]) -
                           (ts[i] - ts[p]) * (gs[q] - gs[p]));
  };
  const auto unlink = [&](std::uint32_t i) {
    next[prev[i]] = next[i];
    prev[next[i]] = prev[i];
  };
  // Zero-area pre-pass: while any live knot has area exactly 0 the greedy
  // takes the lowest-indexed one, at no cost to the budget (eps > 0, and
  // spent stays +0.0).  A removal changes only its neighbours' areas, so a
  // left-to-right scan that steps back to re-check p after removing a knot
  // (then moves on to q) removes those knots in the greedy's own order and
  // leaves every live leaf keyed with its current area.
  std::uint32_t live = n - 2;
  for (std::uint32_t i = 1; i + 1 < n;) {
    const double a = tri(i);
    if (a != 0.0) {
      tree[leaves + i].area = std::bit_cast<std::uint64_t>(a);
      i = next[i];
      continue;
    }
    const std::uint32_t p = prev[i];
    const std::uint32_t q = next[i];
    unlink(i);
    tree[leaves + i].area = kInfBits;
    --live;
    i = p > 0 ? p : q;
  }
  // An inner node takes its left child's key unless the right one's area is
  // strictly smaller; leaves are in index order, so ties go to the lower
  // index.  Selects are masks, not branches: which side wins is a coin flip
  // to a branch predictor, and compilers turn a plain ?: back into one.
  const auto select = [](Key& into, const Key& other, bool take) {
    const std::uint64_t mask = 0 - std::uint64_t{take};
    into.area ^= (into.area ^ other.area) & mask;
    into.knot ^= (into.knot ^ other.knot) & static_cast<std::uint32_t>(mask);
  };
  for (std::size_t k = leaves - 1; k > 0; --k) {
    Key win = tree[2 * k];
    select(win, tree[2 * k + 1], tree[2 * k + 1].area < win.area);
    tree[k] = win;
  }
  // Re-keying a knot replays its fixed-length path to the root, comparing the
  // running winner with each sibling (loads that do not wait on the walk).
  // A left sibling also wins a tie.
  const auto rekey = [&](std::uint32_t i, double area) {
    Key win{std::bit_cast<std::uint64_t>(area), i};
    std::size_t s = leaves + static_cast<std::size_t>(i);
    tree[s] = win;
    for (; s > 1; s /= 2) {
      const Key sib = tree[s ^ 1];
      select(win, sib, sib.area < win.area + (s & 1));
      tree[s / 2] = win;
    }
  };

  double spent = 0.0;
  for (; live > 0; --live) {
    const double a = std::bit_cast<double>(tree[1].area);
    // A non-finite key means no finite-area knot is left.
    if (!(a < kInf) || spent + a > eps) break;
    spent += a;
    const std::uint32_t i = tree[1].knot;
    const std::uint32_t p = prev[i];
    const std::uint32_t q = next[i];
    unlink(i);
    rekey(i, kInf);
    if (p > 0) rekey(p, tri(p));
    if (q + 1 < n) rekey(q, tri(q));
  }
  const std::size_t kept = live + 2;
  if (kept == n) return;
  std::vector<double> ts2, gs2;
  ts2.reserve(kept);
  gs2.reserve(kept);
  for (std::uint32_t i = 0; i < n; i = next[i]) {
    ts2.push_back(ts[i]);
    gs2.push_back(gs[i]);
  }
  ts = std::move(ts2);
  gs = std::move(gs2);
}

FlatTrace flatten_constant(double g) {
  FlatTrace flat;
  flat.constant = true;
  flat.g_const = g;
  return flat;
}

// ---------------------------------------------------------------------------
// Terminal-current surface.
// ---------------------------------------------------------------------------

IvSurface::Bound IvSurface::bind(double pv_scale) const {
  Bound b;
  b.v_knots = v_knots;
  b.g_knots = g_knots;
  b.dv = dv;
  b.dg = dg;
  const std::size_t slice =
      static_cast<std::size_t>(v_knots) * static_cast<std::size_t>(g_knots);
  if (s_knots.size() < 2) {
    b.lo = b.hi = vals.data();
    b.w = 0.0;
    return b;
  }
  const double ds = s_knots[1] - s_knots[0];
  double x = (pv_scale - s_knots[0]) / ds;
  x = std::clamp(x, 0.0, static_cast<double>(s_knots.size() - 1) - 1e-9);
  const auto k = static_cast<std::size_t>(x);
  b.w = x - static_cast<double>(k);
  b.lo = &vals[k * slice];
  b.hi = &vals[(k + 1) * slice];
  return b;
}

IvSurface size_iv_surface(std::vector<double> s_knots, double v_max,
                          int v_knots, double g_max, int g_knots) {
  HEMP_REQUIRE(!s_knots.empty() && v_knots >= 2 && g_knots >= 2,
               "build_iv_surface: degenerate grid");
  IvSurface iv;
  iv.s_knots = std::move(s_knots);
  iv.v_knots = v_knots;
  iv.g_knots = g_knots;
  iv.dv = v_max / (v_knots - 1);
  iv.dg = g_max / (g_knots - 1);
  iv.vals.assign(iv.s_knots.size() * static_cast<std::size_t>(v_knots) *
                     static_cast<std::size_t>(g_knots),
                 std::numeric_limits<double>::quiet_NaN());
  return iv;
}

namespace {

FlatPv slice_pv(const IvSurface& iv, const PvCellParams& base,
                std::size_t slice) {
  return make_flat_pv(scaled_pv_params(iv.s_knots[slice], base));
}

/// Solve knots [0, g_count) of block `b` (rows b*kIvRowLanes on, fewer in
/// a tail block) of the slice at `out`.
void solve_iv_block(const FlatPv& pv, const IvSurface& iv, std::size_t b,
                    double* out, int g_count) {
  const int vi = static_cast<int>(b) * kIvRowLanes;
  const int rows = std::min(kIvRowLanes, iv.v_knots - vi);
  if (rows == kIvRowLanes) {
    solve_iv_rows<kIvRowLanes>(pv, iv, vi, out, g_count);
  } else {
    for (int r = 0; r < rows; ++r) solve_iv_rows<1>(pv, iv, vi + r, out, g_count);
  }
  solver_stats::count_iv_cells(static_cast<std::uint64_t>(rows) *
                               static_cast<std::uint64_t>(g_count));
}

std::size_t iv_blocks(const IvSurface& iv) {
  return static_cast<std::size_t>((iv.v_knots + kIvRowLanes - 1) / kIvRowLanes);
}

}  // namespace

void fill_iv_slice(IvSurface& iv, const PvCellParams& base, std::size_t slice) {
  const FlatPv pv = slice_pv(iv, base, slice);
  double* out = &iv.vals[slice * static_cast<std::size_t>(iv.v_knots) *
                         static_cast<std::size_t>(iv.g_knots)];
  for (std::size_t b = 0; b < iv_blocks(iv); ++b) {
    solve_iv_block(pv, iv, b, out, iv.g_knots);
  }
}

IvSurface::Filler::Filler(IvSurface& surface, const PvCellParams& base)
    : iv(&surface), pv(slice_pv(surface, base, 0)), filled(iv_blocks(surface)) {
  HEMP_REQUIRE(surface.s_knots.size() == 1,
               "IvSurface::Filler: first-touch fill needs a single-slice surface");
}

void IvSurface::Filler::cover(double g_peak) {
  const double knots = std::floor(std::max(g_peak, 0.0) / iv->dg) + 3.0;
  const int want = knots < iv->g_knots ? static_cast<int>(knots) : iv->g_knots;
  if (want <= g_count) return;
  g_count = want;
  std::fill(filled.begin(), filled.end(), 0);
}

void IvSurface::Filler::fill_block(std::size_t b) {
  solve_iv_block(pv, *iv, b, iv->vals.data(), g_count);
  filled[b] = 1;
}

IvSurface build_iv_surface(std::vector<double> s_knots,
                           const PvCellParams& base, double v_max, int v_knots,
                           double g_max, int g_knots) {
  IvSurface iv =
      size_iv_surface(std::move(s_knots), v_max, v_knots, g_max, g_knots);
  for (std::size_t i = 0; i < iv.s_knots.size(); ++i) fill_iv_slice(iv, base, i);
  return iv;
}

// ---------------------------------------------------------------------------
// MPP surface.
// ---------------------------------------------------------------------------

std::vector<double> surface_knots(double lo, double hi, int n) {
  std::vector<double> xs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    xs[static_cast<std::size_t>(i)] = lo + (hi - lo) * i / (n - 1);
  }
  return xs;
}

MppSurface size_mpp_surface(double s_lo, double s_hi, int s_count,
                            double g_min, double g_max, int g_count) {
  HEMP_REQUIRE(s_count >= 2 && g_count >= 2 && g_min > 0.0 && g_max > g_min,
               "build_mpp_surface: degenerate grid");
  MppSurface surf;
  surf.s_knots = surface_knots(s_lo, s_hi, s_count);
  surf.g_knots.resize(static_cast<std::size_t>(g_count));
  for (int j = 0; j < g_count; ++j) {
    surf.g_knots[static_cast<std::size_t>(j)] =
        g_min * std::pow(g_max / g_min, static_cast<double>(j) / (g_count - 1));
  }
  const std::size_t cells = surf.s_knots.size() * surf.g_knots.size();
  surf.vmpp.emplace(surf.s_knots, surf.g_knots, std::vector<double>(cells));
  surf.pmpp.emplace(surf.s_knots, surf.g_knots, std::vector<double>(cells));
  return surf;
}

void fill_mpp_row(MppSurface& surf, const PvCellParams& base, std::size_t row) {
  const PvCell cell(scaled_pv_params(surf.s_knots[row], base));
  double* vmpp = surf.vmpp->row(row);
  double* pmpp = surf.pmpp->row(row);
  for (std::size_t j = 0; j < surf.g_knots.size(); ++j) {
    const MaxPowerPoint mpp = find_mpp(cell, surf.g_knots[j]);
    vmpp[j] = mpp.voltage.value();
    pmpp[j] = mpp.power.value();
  }
}

MppSurface build_mpp_surface(const PvCellParams& base, double s_lo, double s_hi,
                             int s_count, double g_min, double g_max,
                             int g_count) {
  MppSurface surf =
      size_mpp_surface(s_lo, s_hi, s_count, g_min, g_max, g_count);
  for (std::size_t i = 0; i < surf.s_knots.size(); ++i) {
    fill_mpp_row(surf, base, i);
  }
  return surf;
}

// ---------------------------------------------------------------------------
// Closed-form stepping primitives.
// ---------------------------------------------------------------------------

RailEpisode rail_regulated_episode(double e_0, double e_t, double dt,
                                   double dt_ref, double tau, double p_load,
                                   double rated, PowMemo& memo) {
  RailEpisode out;
  const double rho = 1.0 - dt_ref / tau;
  double e_end = e_0;
  double k = dt / dt_ref;  // whole ticks (grid-quantized); final partial
                           // step falls through as geometric
  if (k >= 1.0 && rho > 0.0) {
    const double e_hi = e_t - tau * (rated - p_load);
    const double e_lo = e_t + tau * p_load;
    if (e_end < e_hi && rated > p_load) {
      const double step_e = (rated - p_load) * dt_ref;
      const double k1 = std::min(k, std::ceil((e_hi - e_end) / step_e - 1e-9));
      e_end += k1 * step_e;
      k -= k1;
      out.t_ramp = k1 * dt_ref;
    } else if (e_end > e_lo && p_load > 0.0) {
      const double step_e = p_load * dt_ref;
      const double k2 = std::min(k, std::ceil((e_end - e_lo) / step_e - 1e-9));
      e_end -= k2 * step_e;
      k -= k2;
      out.t_drain = k2 * dt_ref;
    }
  }
  out.e_decay_0 = e_end;
  if (k > 0.0) {
    double decay = 0.0;
    if (rho > 0.0) {
      if (memo.base == rho && memo.exp == k) {
        decay = memo.val;
      } else {
        decay = std::pow(rho, k);
        memo.base = rho;
        memo.exp = k;
        memo.val = decay;
      }
    }
    e_end = e_t + (e_end - e_t) * decay;
    out.t_decay = k * dt_ref;
  }
  out.e_end = e_end;
  return out;
}

double rail_settle_dt(double e_0, double e_t, double dt_ref, double tau,
                      double p_load, double rated, double e_band_lo,
                      double e_band_hi) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (e_0 >= e_band_lo && e_0 <= e_band_hi) return 0.0;
  const double rho = 1.0 - dt_ref / tau;
  if (rho <= 0.0) return dt_ref;  // one tick lands exactly on e_t
  const double e_hi = e_t - tau * (rated - p_load);
  const double e_lo = e_t + tau * p_load;
  double e = e_0;
  double ticks = 0.0;
  if (e < e_band_lo) {
    // Approaching from below: linear ramp at (rated - p_load) per tick while
    // e < e_hi, then geometric decay of the gap to e_t inside the mid-band.
    if (e < e_hi) {
      const double step_e = (rated - p_load) * dt_ref;
      if (step_e <= 0.0) return kInf;  // no ramp headroom: pinned below
      const double goal = std::min(e_hi, e_band_lo);
      const double k1 = std::max(0.0, std::ceil((goal - e) / step_e - 1e-9));
      e += k1 * step_e;
      ticks += k1;
      if (e >= e_band_lo) return ticks * dt_ref;  // band reached on the ramp
    }
    const double gap = e_t - e;
    const double gap_goal = e_t - e_band_lo;
    if (gap <= gap_goal) return ticks * dt_ref;
    if (gap_goal <= 0.0) return kInf;  // band entirely below the fixed point
    const double k2 = std::ceil(std::log(gap_goal / gap) / std::log(rho) - 1e-9);
    return (ticks + std::max(k2, 1.0)) * dt_ref;
  }
  // Approaching from above: linear drain at p_load per tick while e > e_lo
  // (the output clamp pins p_out at zero), then geometric inside the band.
  if (e > e_lo) {
    if (p_load <= 0.0) return kInf;  // the regulator cannot sink: pinned
    const double step_e = p_load * dt_ref;
    const double goal = std::max(e_lo, e_band_hi);
    const double k1 = std::max(0.0, std::ceil((e - goal) / step_e - 1e-9));
    e -= k1 * step_e;
    ticks += k1;
    if (e <= e_band_hi) return ticks * dt_ref;
  }
  const double gap = e - e_t;
  const double gap_goal = e_band_hi - e_t;
  if (gap <= gap_goal) return ticks * dt_ref;
  if (gap_goal <= 0.0) return kInf;
  const double k2 = std::ceil(std::log(gap_goal / gap) / std::log(rho) - 1e-9);
  return (ticks + std::max(k2, 1.0)) * dt_ref;
}

double integrate_solar(const IvSurface::Bound& iv, double c_solar, double& v_s,
                       double dt, double g_mid, double p_in) {
  const double v0 = v_s;
  double v1 = v0;
  double vm = v0;
  double i = 0.0;
  IvSurface::Bound::RowCursor rc = iv.bind_row(g_mid);
  for (int iter = 0; iter < 40; ++iter) {
    vm = 0.5 * (v0 + v1);
    if (vm < 0.0) vm = 0.0;
    double didv = 0.0;
    i = iv.cell_i_row(vm, rc, &didv);
    const double F =
        0.5 * c_solar * (v1 * v1 - v0 * v0) - dt * (vm * i - p_in);
    double dF = c_solar * v1 - dt * 0.5 * (i + vm * didv);
    if (dF < 1e-12) dF = 1e-12;
    const double step = F / dF;
    v1 -= step;
    if (std::fabs(step) < 1e-10) break;
  }
  if (v1 < 0.0) v1 = 0.0;
  v_s = v1;
  return vm * i;
}

BypassStepResult integrate_bypass_merged(const IvSurface::Bound& iv,
                                         double c_solar, double c_vdd,
                                         double r_on, double& v_s, double& v_d,
                                         double dt, double g_mid, double p_load,
                                         double v_floor) {
  BypassStepResult out;
  const double c_tot = c_solar + c_vdd;
  const double i_load = p_load / std::max(v_d, v_floor);
  // Quasi-steady series drop across the switch: the current that keeps both
  // nodes slewing together is i_R = (C_v*i_pv + C_s*i_load)/C_tot.
  const double i_pv0 = iv.cell_i(v_s, g_mid);
  const double i_r = (c_vdd * i_pv0 + c_solar * i_load) / c_tot;
  out.i_r = i_r;
  if (i_r < 0.0) return out;  // diode would block: caller detaches the nodes
  out.conducted = true;
  const double delta = r_on * i_r;
  const double off_s = (c_vdd / c_tot) * delta;
  const double off_d = (c_solar / c_tot) * delta;
  // Implicit midpoint on the charge-conserving average voltage.
  const double vbar0 = (c_solar * v_s + c_vdd * v_d) / c_tot;
  double v1 = vbar0;
  double vm = vbar0;
  double i = 0.0;
  IvSurface::Bound::RowCursor rc = iv.bind_row(g_mid);
  for (int iter = 0; iter < 40; ++iter) {
    vm = 0.5 * (vbar0 + v1);
    const double v_cell = std::max(vm + off_s, 0.0);
    double didv = 0.0;
    i = iv.cell_i_row(v_cell, rc, &didv);
    const double F = c_tot * (v1 - vbar0) - dt * (i - i_load);
    double dF = c_tot - dt * 0.5 * didv;
    if (dF < 1e-12) dF = 1e-12;
    const double step = F / dF;
    v1 -= step;
    if (std::fabs(step) < 1e-14) break;
  }
  out.p_harvest_avg = std::max(vm + off_s, 0.0) * i;
  v_s = std::max(v1 + off_s, 0.0);
  v_d = std::max(v1 - off_d, 0.0);
  return out;
}

// ---------------------------------------------------------------------------
// Analytic watch bounds.
// ---------------------------------------------------------------------------

// How many v-grid cells the crossing-time walks inspect exactly before
// closing the remainder with a single worst-case-rate term.  Stalls (the case
// the walk exists for) reveal themselves within a few cells of the start.
constexpr int kSolarWalkCells = 6;

double solar_rise_dt(const IvSurface::Bound& iv, double c_eff, double v0,
                     double v_to, double g, double i_opp, double dt_cap) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (v_to <= v0) return 0.0;
  double t_acc = 0.0;
  double x1 = v0;
  double n1 = iv.cell_i(x1, g) - i_opp;
  if (n1 <= 0.0) return kInf;  // not rising at the start: no upward crossing
  // The initial rate is the maximum anywhere on an upward path (photocurrent
  // is non-increasing in v), so when even the full distance at that rate
  // takes longer than the cap the walk cannot bind — skip it.  Identical
  // return to the full walk, which would accumulate >= this and cap out.
  if (c_eff * (v_to - x1) / n1 >= dt_cap) return dt_cap;
  for (int cells = 0; x1 < v_to; ++cells) {
    if (cells >= kSolarWalkCells) {
      // Photocurrent is monotone non-increasing in v, so the net rate beyond
      // this point never exceeds n1: one conservative term closes the
      // remainder.  The walk only matters near a stall, which shows up in
      // the first few cells; a long fast charge is fine with the crude tail.
      return std::min(t_acc + c_eff * (v_to - x1) / n1, dt_cap);
    }
    // Next v-grid boundary strictly above x1 (uniform pitch iv.dv); i is
    // linear in v on the segment, so charging the cell at its *fastest* rate
    // max(n1, n2) lower-bounds the crossing time.  A watch bound only needs
    // that direction of error, and skipping the exact log integral keeps the
    // walk to one surface lookup per cell.
    const double k = std::floor(x1 / iv.dv + 1e-9) + 1.0;
    const double x2 = std::min(v_to, k * iv.dv);
    const double n2 = iv.cell_i(x2, g) - i_opp;
    if (n2 <= 0.0) return kInf;  // stalls at an in-cell equilibrium
    t_acc += c_eff * (x2 - x1) / std::max(n1, n2);
    if (t_acc >= dt_cap) return dt_cap;
    x1 = x2;
    n1 = n2;
  }
  return t_acc;
}

double solar_fall_dt(const IvSurface::Bound& iv, double c_eff, double v0,
                     double v_to, double g, double i_drv, double dt_cap) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (v_to >= v0) return 0.0;
  double t_acc = 0.0;
  double x1 = v0;
  double n1 = i_drv - iv.cell_i(x1, g);  // net discharge, > 0 while falling
  if (n1 <= 0.0) return kInf;  // photocurrent holds the node up
  // Falling raises the photocurrent opposition, so the initial rate bounds
  // the whole path: if the full distance at that rate already exceeds the
  // cap, the walk cannot bind (same early-out as solar_rise_dt).
  if (c_eff * (x1 - v_to) / n1 >= dt_cap) return dt_cap;
  for (int cells = 0; x1 > v_to; ++cells) {
    if (cells >= kSolarWalkCells) {
      // Falling v raises the photocurrent opposition, so the net rate beyond
      // this point never exceeds n1 — same tail closure as solar_rise_dt.
      return std::min(t_acc + c_eff * (x1 - v_to) / n1, dt_cap);
    }
    // Same cheap per-cell bound as solar_rise_dt: discharge the cell at its
    // fastest in-cell rate, a lower bound on the true crossing time.
    const double k = std::ceil(x1 / iv.dv - 1e-9) - 1.0;
    const double x2 = std::max(v_to, k * iv.dv);
    const double n2 = i_drv - iv.cell_i(x2, g);
    if (n2 <= 0.0) return kInf;  // parks at an in-cell equilibrium
    t_acc += c_eff * (x1 - x2) / std::max(n1, n2);
    if (t_acc >= dt_cap) return dt_cap;
    x1 = x2;
    n1 = n2;
  }
  return t_acc;
}

double watch_bound_dt(const WatchBoundIn& in, const WatchAccum& ws,
                      const WatchAccum& wd) {
  double dt = in.dt;
  // Every voltage is monotone within a step, so endpoint sampling cannot
  // *skip* a crossing — the bounds below only control detection latency.
  // Allowing overshoot up to the comparator half-hysteresis keeps the
  // detected edge inside its hysteresis band, the same latency class as the
  // reference's own one-tick quantization, and stops an equilibrium *at* a
  // watch level from grinding the stepper to single ticks.
  const double up_s = ws.up + in.half_hyst;
  const double dn_s = ws.down + in.half_hyst;
  // In bypass conduction the two capacitors slew together, so the charge that
  // moves either node spreads over the merged capacitance.
  const double c_sol_eff = in.conducting ? in.c_solar + in.c_vdd : in.c_solar;
  const double c_rail_eff = in.conducting ? in.c_solar + in.c_vdd : in.c_vdd;
  // Solar node, upward crossings: only photocurrent charges the node.  With
  // the IV surface at hand, walk the per-cell crossing time of
  // the frozen-input dynamics (photocurrent falls along an upward path, so
  // freezing it at the initial value — the fallback — badly underestimates
  // the crossing time near the diode knee).  The merged bypass node also
  // fights the processor draw; p_load / v_level under-states that draw
  // everywhere on the path, keeping the bound valid.
  if (std::isfinite(ws.up)) {
    if (in.iv != nullptr) {
      const double v_to = in.v_s + up_s;
      const double i_opp =
          in.conducting ? in.p_load / std::max(v_to, in.v_floor) : 0.0;
      dt = std::min(dt, solar_rise_dt(*in.iv, c_sol_eff, in.v_s, v_to,
                                      in.g_hi, i_opp, dt));
    } else if (in.i_pv_now > 0.0) {
      dt = std::min(dt, c_sol_eff * up_s / in.i_pv_now);
    }
  }
  // Solar node, downward crossings: only the source-side draw discharges it
  // (p_in = (p_out + fixed loss)/eta_lin grows monotonically with p_out, and
  // |p_restore| peaks at (E_target - E)/tau in the dt -> 0 limit);
  // photocurrent only opposes the motion, so it is dropped from the bound.
  if (std::isfinite(ws.down)) {
    double i_bound = 0.0;
    if (in.regulated && in.sc_ok) {
      const double p_out_bound =
          std::min(in.sc->rated, in.p_load + std::fabs(in.e_t - in.e_0) / in.tau);
      const double r = sc_active_ratio(*in.sc, in.v_s, in.cmd_vdd);
      if (r > 0.0) {
        const double eta_lin = in.cmd_vdd / (r * in.v_s);
        const double p_in_bound =
            ((1.0 + in.sc->switch_loss) * p_out_bound + in.sc->control_power) /
            eta_lin;
        i_bound = p_in_bound / std::max(in.v_s - ws.down, in.v_floor);
      }
    } else if (!in.regulated) {
      i_bound = in.p_load / std::max(in.conducting ? in.v_s - ws.down : in.v_d,
                                     in.v_floor);
    }
    if (i_bound > 0.0) {
      if (in.iv != nullptr) {
        // Exact fall integral: the photocurrent *opposes* the discharge and
        // grows as the node falls, so a node harvesting near its draw parks
        // instead of grinding bound-limited steps toward a level it will
        // never cross.
        dt = std::min(dt, solar_fall_dt(*in.iv, c_sol_eff, in.v_s,
                                        in.v_s - dn_s, in.g_lo, i_bound, dt));
      } else {
        dt = std::min(dt, c_sol_eff * dn_s / i_bound);
      }
    }
  }
  if (in.regulated) {
    // Regulated rail: the step integrator follows the exact discrete map
    // E' = E + (dt_ref/tau)*(E_eff - E) with net power clamped to
    // [-p_load, rated - p_load], monotone toward the effective target — so
    // the *initial* net rate is the maximum over the step and the rate-bound
    // is exact, not a worst-case envelope (rating the bound at the full
    // rated output would cap every near-equilibrium step at a tick or two).
    if (std::isfinite(wd.up) && in.sc_ok) {
      const double up_rate =
          std::min((in.e_t - in.e_0) / in.tau, in.sc->rated - in.p_load);
      if (up_rate > 0.0) {
        const double vw = in.v_d + wd.up + in.half_hyst;
        dt = std::min(dt, (0.5 * in.c_vdd * vw * vw - in.e_0) / up_rate);
      }
    }
    if (std::isfinite(wd.down)) {
      const double down_rate =
          in.sc_ok ? std::min((in.e_0 - in.e_t) / in.tau, in.p_load)
                   : in.p_load;
      if (down_rate > 0.0) {
        const double vw = std::max(in.v_d - wd.down - in.half_hyst, 0.0);
        dt = std::min(dt, (in.e_0 - 0.5 * in.c_vdd * vw * vw) / down_rate);
      }
    }
  } else {
    // Bypass rail: only the conducting switch can charge it (at most the
    // photocurrent bound; a detached rail cannot rise), and only the
    // processor load can discharge it.
    if (std::isfinite(wd.up) && in.conducting) {
      const double v_to = in.v_d + wd.up + in.half_hyst;
      if (in.iv != nullptr) {
        // Integrate from v_d: the merged node sits at or above it, and the
        // photocurrent only falls with voltage, so this is conservative.
        const double i_opp = in.p_load / std::max(v_to, in.v_floor);
        dt = std::min(dt, solar_rise_dt(*in.iv, c_rail_eff, in.v_d, v_to,
                                        in.g_hi, i_opp, dt));
      } else if (in.i_pv_now > 0.0) {
        dt = std::min(dt, c_rail_eff * (wd.up + in.half_hyst) / in.i_pv_now);
      }
    }
    if (std::isfinite(wd.down) && in.p_load > 0.0) {
      const double i_bound =
          in.p_load / std::max(in.v_d - wd.down, in.v_floor);
      dt = std::min(dt, c_rail_eff * (wd.down + in.half_hyst) / i_bound);
    }
  }
  return dt;
}

}  // namespace hemp::flat
