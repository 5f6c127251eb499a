// Piecewise-linear lookup tables.
//
// Used for regulator efficiency maps, the MPP-tracking power->voltage LUT
// (paper Sec. VI-A) and measured-curve replay in benches.
#pragma once

#include <utility>
#include <vector>

namespace hemp {

/// Bilinear z(x, y) over a rectilinear grid of strictly increasing axes.
///
/// Backs the fleet's shared MPP surface (flat::MppSurface) and the batch
/// kernel's crossover tables: a quantity solved once per grid node is then
/// answered with one cell lookup + bilinear blend.  Out-of-range queries clamp
/// to the boundary, matching PiecewiseLinear's default saturation.
class BilinearGrid {
 public:
  BilinearGrid() = default;

  /// `values` is row-major over (x, y): values[i * ys.size() + j] = z(xs[i],
  /// ys[j]).  Both axes must be strictly increasing with size >= 2.
  BilinearGrid(std::vector<double> xs, std::vector<double> ys,
               std::vector<double> values);

  [[nodiscard]] double operator()(double x, double y) const;

  [[nodiscard]] bool empty() const { return values_.empty(); }

  /// Writable row i of the values (one per y knot), so a builder can size a
  /// grid first and fill its rows in place afterwards.
  [[nodiscard]] double* row(std::size_t i) { return &values_[i * ys_.size()]; }

 private:
  [[nodiscard]] std::size_t x_segment(double x) const;
  [[nodiscard]] std::size_t y_segment(double y) const;

  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<double> values_;
  // Uniform axes (the common case: surfaces built on linspace grids) resolve
  // the cell index with one multiply instead of a binary search; 0 when the
  // axis spacing is irregular.
  double x_inv_pitch_ = 0.0;
  double y_inv_pitch_ = 0.0;
};

/// Piecewise-linear y(x) over strictly increasing knots.
///
/// Out-of-range queries clamp to the boundary value by default (matching how a
/// hardware LUT saturates); `extrapolate()` switches to linear extrapolation.
class PiecewiseLinear {
 public:
  PiecewiseLinear() = default;

  /// Build from (x, y) pairs; x must be strictly increasing, size >= 2.
  explicit PiecewiseLinear(std::vector<std::pair<double, double>> knots);

  /// Convenience: build from parallel vectors.
  PiecewiseLinear(const std::vector<double>& xs, const std::vector<double>& ys);

  /// y at `x`; throws ModelError on a NaN `x`.
  [[nodiscard]] double operator()(double x) const;

  /// Switch out-of-range behaviour to linear extrapolation from end segments.
  PiecewiseLinear& extrapolate(bool enable = true) {
    extrapolate_ = enable;
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return knots_.size(); }
  [[nodiscard]] const std::vector<std::pair<double, double>>& knots() const {
    return knots_;
  }

  /// True when y is strictly increasing over the knots.
  [[nodiscard]] bool monotone_increasing() const;
  /// True when y is strictly decreasing over the knots.
  [[nodiscard]] bool monotone_decreasing() const;

  /// Inverse lookup x(y); requires monotone (either direction) y values.
  [[nodiscard]] double inverse(double y) const;

 private:
  std::vector<std::pair<double, double>> knots_;
  bool extrapolate_ = false;
};

}  // namespace hemp
