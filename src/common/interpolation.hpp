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
/// Backs the memoized model surfaces (ModelSurfaces): optimizer-hot queries
/// like delivered_power(vdd, g) are precomputed onto the grid once and then
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

  /// True when (x, y) lies inside the grid rectangle (queries outside it
  /// clamp, so callers wanting exact answers should fall back to the model).
  [[nodiscard]] bool contains(double x, double y) const;

  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] double x_min() const { return xs_.front(); }
  [[nodiscard]] double x_max() const { return xs_.back(); }
  [[nodiscard]] double y_min() const { return ys_.front(); }
  [[nodiscard]] double y_max() const { return ys_.back(); }
  [[nodiscard]] std::size_t x_size() const { return xs_.size(); }
  [[nodiscard]] std::size_t y_size() const { return ys_.size(); }

  /// Writable row i of the values (y_size() entries), so a builder can size a
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

  [[nodiscard]] double x_min() const { return knots_.front().first; }
  [[nodiscard]] double x_max() const { return knots_.back().first; }
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
