// Scalar numeric routines: root finding, 1-D minimization, integration.
//
// All routines operate on plain doubles; callers wrap/unwrap unit types at the
// boundary.  Tolerances are absolute on the argument unless noted.
//
// The solvers take the objective as a template parameter rather than a
// type-erased std::function, so the per-probe call is a direct (usually
// inlined) call.  The arithmetic is written out once, here; callers get
// exactly the same iterates — bit for bit — whatever callable they pass.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace hemp::numeric {

struct RootOptions {
  double x_tol = 1e-9;       ///< stop when bracket width < x_tol
  int max_iterations = 200;  ///< hard iteration cap (throws ConvergenceError)
};

/// Find x in [lo, hi] with f(x) == 0 by bisection.
/// Requires f(lo) and f(hi) to have opposite signs (or one of them be zero).
template <class F>
double bisect_root(const F& f, double lo, double hi, const RootOptions& opts = {}) {
  HEMP_REQUIRE(lo < hi, "bisect_root: empty bracket");
  double flo = f(lo);
  const double fhi = f(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  HEMP_REQUIRE(std::signbit(flo) != std::signbit(fhi),
               "bisect_root: f(lo) and f(hi) must have opposite signs");
  for (int i = 0; i < opts.max_iterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    if (fmid == 0.0 || hi - lo < opts.x_tol) return mid;
    if (std::signbit(fmid) == std::signbit(flo)) {
      lo = mid;
      flo = fmid;
    } else {
      hi = mid;
    }
  }
  throw ConvergenceError("bisect_root: iteration cap reached");
}

/// brent_root for a caller that has already evaluated the bracket ends:
/// f_lo = f(lo) and f_hi = f(hi).  Gives brent_root's bits with two fewer
/// calls of f.
template <class F>
double brent_root_with_ends(const F& f, double lo, double hi, double f_lo,
                            double f_hi, const RootOptions& opts = {}) {
  HEMP_REQUIRE(lo < hi, "brent_root: empty bracket");
  double a = lo, b = hi;
  double fa = f_lo, fb = f_hi;
  if (fa == 0.0) return a;
  if (fb == 0.0) return b;
  HEMP_REQUIRE(std::signbit(fa) != std::signbit(fb),
               "brent_root: f(lo) and f(hi) must have opposite signs");
  if (std::fabs(fa) < std::fabs(fb)) {
    std::swap(a, b);
    std::swap(fa, fb);
  }
  double c = a, fc = fa;
  bool mflag = true;
  double d = 0.0;
  for (int i = 0; i < opts.max_iterations; ++i) {
    if (fb == 0.0 || std::fabs(b - a) < opts.x_tol) return b;
    double s;
    if (fa != fc && fb != fc) {
      // Inverse quadratic interpolation.
      s = a * fb * fc / ((fa - fb) * (fa - fc)) +
          b * fa * fc / ((fb - fa) * (fb - fc)) +
          c * fa * fb / ((fc - fa) * (fc - fb));
    } else {
      // Secant.
      s = b - fb * (b - a) / (fb - fa);
    }
    const double m = 0.5 * (a + b);
    const bool s_bad =
        (s < std::min(m, b) || s > std::max(m, b)) ||
        (mflag && std::fabs(s - b) >= 0.5 * std::fabs(b - c)) ||
        (!mflag && std::fabs(s - b) >= 0.5 * std::fabs(c - d)) ||
        (mflag && std::fabs(b - c) < opts.x_tol) ||
        (!mflag && std::fabs(c - d) < opts.x_tol);
    if (s_bad) {
      s = m;
      mflag = true;
    } else {
      mflag = false;
    }
    const double fs = f(s);
    d = c;
    c = b;
    fc = fb;
    if (std::signbit(fa) != std::signbit(fs)) {
      b = s;
      fb = fs;
    } else {
      a = s;
      fa = fs;
    }
    if (std::fabs(fa) < std::fabs(fb)) {
      std::swap(a, b);
      std::swap(fa, fb);
    }
  }
  throw ConvergenceError("brent_root: iteration cap reached");
}

/// Brent's method: bisection safety with inverse-quadratic speed.
/// Same bracketing contract as bisect_root.
template <class F>
double brent_root(const F& f, double lo, double hi, const RootOptions& opts = {}) {
  HEMP_REQUIRE(lo < hi, "brent_root: empty bracket");
  const double f_lo = f(lo);
  const double f_hi = f(hi);
  return brent_root_with_ends(f, lo, hi, f_lo, f_hi, opts);
}

struct MinimizeOptions {
  double x_tol = 1e-7;
  int max_iterations = 200;
  /// Number of coarse grid probes used to locate the basin before refining.
  /// Needed because several of our objectives (energy vs Vdd with a
  /// ratio-switching SC regulator) are piecewise and multi-modal.
  int grid_points = 64;
};

struct MinimizeResult {
  double x = 0.0;
  double value = 0.0;
};

/// Golden-section search on [lo, hi]; assumes unimodal f on the interval.
template <class F>
MinimizeResult golden_section_minimize(const F& f, double lo, double hi,
                                       const MinimizeOptions& opts = {}) {
  HEMP_REQUIRE(lo <= hi, "golden_section_minimize: empty interval");
  constexpr double kInvPhi = 0.6180339887498949;
  double a = lo, b = hi;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = f(x1), f2 = f(x2);
  for (int i = 0; i < opts.max_iterations && (b - a) > opts.x_tol; ++i) {
    if (f1 < f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = f(x2);
    }
  }
  const double x = 0.5 * (a + b);
  return {x, f(x)};
}

namespace detail {

/// Shared tail of the grid searches: golden-section refinement inside the
/// two grid cells around probe `best` (value `best_val`) of the n-point grid
/// lo + step * i, keeping the probe when the refinement does worse.
template <class F>
MinimizeResult refine_grid_basin(const F& f, double lo, double step, int n,
                                 int best, double best_val,
                                 const MinimizeOptions& opts) {
  const double a = lo + step * std::max(best - 1, 0);
  const double b = lo + step * std::min(best + 1, n - 1);
  MinimizeResult refined = golden_section_minimize(f, a, b, opts);
  // The basin refinement can only improve on the grid probe; keep the probe if
  // the local search wandered into a worse neighbouring basin.
  if (refined.value <= best_val) return refined;
  return {lo + step * best, best_val};
}

}  // namespace detail

/// Global-ish 1-D minimization: coarse grid scan to find the best basin, then
/// golden-section refinement inside the bracketing grid cells.  Robust to the
/// piecewise/multi-modal objectives produced by ratio-switching regulators.
/// Ties go to the first (lowest-x) grid probe.
template <class F>
MinimizeResult grid_refine_minimize(const F& f, double lo, double hi,
                                    const MinimizeOptions& opts = {}) {
  HEMP_REQUIRE(lo <= hi, "grid_refine_minimize: empty interval");
  HEMP_REQUIRE(opts.grid_points >= 3, "grid_refine_minimize: need >= 3 grid points");
  const int n = opts.grid_points;
  int best = 0;
  double best_val = std::numeric_limits<double>::infinity();
  const double step = (hi - lo) / (n - 1);
  for (int i = 0; i < n; ++i) {
    const double x = lo + step * i;
    const double v = f(x);
    if (v < best_val) {
      best_val = v;
      best = i;
    }
  }
  return detail::refine_grid_basin(f, lo, step, n, best, best_val, opts);
}

/// Maximize f on [lo, hi] (grid + refine); returns argmax and max value.
template <class F>
MinimizeResult grid_refine_maximize(const F& f, double lo, double hi,
                                    const MinimizeOptions& opts = {}) {
  const MinimizeResult r =
      grid_refine_minimize([&f](double x) { return -f(x); }, lo, hi, opts);
  return {r.x, -r.value};
}

/// grid_refine_maximize for objectives that are unimodal on the grid: the
/// samples f(lo + step * i) rise strictly up to their first maximum and never
/// rise after it (a plateau past the peak, e.g. a tail of zeros, is fine).  A
/// strictly concave f has that shape.  Under that contract the result is
/// bit-identical to grid_refine_maximize's: the first maximum of the same
/// grid, then the same golden-section refine on the same bracket and the same
/// keep-the-probe fallback.  The first maximum is found by bisecting on the
/// sign of f(k+1) - f(k) with memoized probes, which takes about 2·log2(n)
/// evaluations instead of n.  On an objective outside the contract the
/// result is a local maximum of the grid, not necessarily the global one.
template <class F>
MinimizeResult concave_grid_refine_maximize(const F& f, double lo, double hi,
                                            const MinimizeOptions& opts = {}) {
  HEMP_REQUIRE(lo <= hi, "concave_grid_refine_maximize: empty interval");
  HEMP_REQUIRE(opts.grid_points >= 3,
               "concave_grid_refine_maximize: need >= 3 grid points");
  const int n = opts.grid_points;
  const double step = (hi - lo) / (n - 1);
  // Work on the negated objective, exactly as grid_refine_maximize does, so
  // the probe values and the refine compare the same bits.
  const auto neg = [&f](double x) { return -f(x); };
  std::vector<double> memo(static_cast<std::size_t>(n),
                           std::numeric_limits<double>::quiet_NaN());
  const auto probe = [&](int i) {
    double& v = memo[static_cast<std::size_t>(i)];
    if (std::isnan(v)) v = neg(lo + step * i);
    return v;
  };
  // The first maximum is the first k whose next sample does not rise
  // (k = n - 1 when none does); that predicate is false then true along k.
  int k_lo = 0, k_hi = n - 1;
  while (k_lo < k_hi) {
    const int mid = k_lo + (k_hi - k_lo) / 2;
    if (probe(mid + 1) >= probe(mid)) {
      k_hi = mid;
    } else {
      k_lo = mid + 1;
    }
  }
  const MinimizeResult r =
      detail::refine_grid_basin(neg, lo, step, n, k_lo, probe(k_lo), opts);
  return {r.x, -r.value};
}

/// Composite-trapezoid integral of f over [lo, hi] with n panels.
template <class F>
double trapezoid_integral(const F& f, double lo, double hi, int panels = 256) {
  HEMP_REQUIRE(panels >= 1, "trapezoid_integral: need >= 1 panel");
  if (lo == hi) return 0.0;
  const double h = (hi - lo) / panels;
  double sum = 0.5 * (f(lo) + f(hi));
  for (int i = 1; i < panels; ++i) sum += f(lo + h * i);
  return sum * h;
}

/// Clamp helper that tolerates inverted bounds in debug-built models.
double clamp(double x, double lo, double hi);

/// True when |a - b| <= tol * max(1, |a|, |b|).
bool approx_equal(double a, double b, double tol = 1e-9);

}  // namespace hemp::numeric
