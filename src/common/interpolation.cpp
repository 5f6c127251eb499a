#include "common/interpolation.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace hemp {
namespace {

double lerp_segment(double x, std::pair<double, double> a, std::pair<double, double> b) {
  const double t = (x - a.first) / (b.first - a.first);
  return a.second + t * (b.second - a.second);
}

// Index of the segment [axis[i], axis[i+1]] containing x, clamped to the
// first/last segment for out-of-range queries.
std::size_t segment_index(const std::vector<double>& axis, double x) {
  if (x <= axis.front()) return 0;
  if (x >= axis.back()) return axis.size() - 2;
  const auto it = std::upper_bound(axis.begin(), axis.end(), x);
  return static_cast<std::size_t>(it - axis.begin()) - 1;
}

}  // namespace

namespace {

// 1 / spacing when `axis` is uniformly spaced (to ~1e-9 relative), else 0.
double uniform_inv_pitch(const std::vector<double>& axis) {
  const double pitch = (axis.back() - axis.front()) /
                       static_cast<double>(axis.size() - 1);
  for (std::size_t i = 1; i < axis.size(); ++i) {
    if (std::fabs(axis[i] - axis[i - 1] - pitch) > 1e-9 * std::fabs(pitch)) {
      return 0.0;
    }
  }
  return 1.0 / pitch;
}

}  // namespace

BilinearGrid::BilinearGrid(std::vector<double> xs, std::vector<double> ys,
                           std::vector<double> values)
    : xs_(std::move(xs)), ys_(std::move(ys)), values_(std::move(values)) {
  HEMP_REQUIRE(xs_.size() >= 2 && ys_.size() >= 2,
               "BilinearGrid: need at least 2 points per axis");
  HEMP_REQUIRE(values_.size() == xs_.size() * ys_.size(),
               "BilinearGrid: values size must be nx * ny");
  for (std::size_t i = 1; i < xs_.size(); ++i) {
    HEMP_REQUIRE(xs_[i - 1] < xs_[i], "BilinearGrid: x axis must be strictly increasing");
  }
  for (std::size_t j = 1; j < ys_.size(); ++j) {
    HEMP_REQUIRE(ys_[j - 1] < ys_[j], "BilinearGrid: y axis must be strictly increasing");
  }
  x_inv_pitch_ = uniform_inv_pitch(xs_);
  y_inv_pitch_ = uniform_inv_pitch(ys_);
}

std::size_t BilinearGrid::x_segment(double x) const {
  if (x_inv_pitch_ > 0.0) {
    const auto i = static_cast<std::ptrdiff_t>((x - xs_.front()) * x_inv_pitch_);
    return static_cast<std::size_t>(
        std::clamp<std::ptrdiff_t>(i, 0, static_cast<std::ptrdiff_t>(xs_.size()) - 2));
  }
  return segment_index(xs_, x);
}

std::size_t BilinearGrid::y_segment(double y) const {
  if (y_inv_pitch_ > 0.0) {
    const auto j = static_cast<std::ptrdiff_t>((y - ys_.front()) * y_inv_pitch_);
    return static_cast<std::size_t>(
        std::clamp<std::ptrdiff_t>(j, 0, static_cast<std::ptrdiff_t>(ys_.size()) - 2));
  }
  return segment_index(ys_, y);
}

double BilinearGrid::operator()(double x, double y) const {
  HEMP_REQUIRE(!values_.empty(), "BilinearGrid: empty grid");
  const double xc = std::clamp(x, xs_.front(), xs_.back());
  const double yc = std::clamp(y, ys_.front(), ys_.back());
  const std::size_t i = x_segment(xc);
  const std::size_t j = y_segment(yc);
  const double tx = (xc - xs_[i]) / (xs_[i + 1] - xs_[i]);
  const double ty = (yc - ys_[j]) / (ys_[j + 1] - ys_[j]);
  const std::size_t ny = ys_.size();
  const double z00 = values_[i * ny + j];
  const double z01 = values_[i * ny + j + 1];
  const double z10 = values_[(i + 1) * ny + j];
  const double z11 = values_[(i + 1) * ny + j + 1];
  const double lo = z00 + ty * (z01 - z00);
  const double hi = z10 + ty * (z11 - z10);
  return lo + tx * (hi - lo);
}

PiecewiseLinear::PiecewiseLinear(std::vector<std::pair<double, double>> knots)
    : knots_(std::move(knots)) {
  HEMP_REQUIRE(knots_.size() >= 2, "PiecewiseLinear: need at least 2 knots");
  for (std::size_t i = 1; i < knots_.size(); ++i) {
    HEMP_REQUIRE(knots_[i - 1].first < knots_[i].first,
                 "PiecewiseLinear: x knots must be strictly increasing");
  }
}

PiecewiseLinear::PiecewiseLinear(const std::vector<double>& xs,
                                 const std::vector<double>& ys) {
  HEMP_REQUIRE(xs.size() == ys.size(), "PiecewiseLinear: xs/ys size mismatch");
  std::vector<std::pair<double, double>> knots;
  knots.reserve(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) knots.emplace_back(xs[i], ys[i]);
  *this = PiecewiseLinear(std::move(knots));
}

double PiecewiseLinear::operator()(double x) const {
  HEMP_REQUIRE(!knots_.empty(), "PiecewiseLinear: empty table");
  if (x <= knots_.front().first) {
    return extrapolate_ ? lerp_segment(x, knots_[0], knots_[1]) : knots_.front().second;
  }
  if (x >= knots_.back().first) {
    return extrapolate_
               ? lerp_segment(x, knots_[knots_.size() - 2], knots_.back())
               : knots_.back().second;
  }
  // A NaN takes neither clamp above; upper_bound would return end().
  HEMP_REQUIRE(!std::isnan(x), "PiecewiseLinear: NaN query");
  const auto it = std::upper_bound(
      knots_.begin(), knots_.end(), x,
      [](double v, const std::pair<double, double>& k) { return v < k.first; });
  return lerp_segment(x, *(it - 1), *it);
}

bool PiecewiseLinear::monotone_increasing() const {
  for (std::size_t i = 1; i < knots_.size(); ++i) {
    if (knots_[i].second <= knots_[i - 1].second) return false;
  }
  return true;
}

bool PiecewiseLinear::monotone_decreasing() const {
  for (std::size_t i = 1; i < knots_.size(); ++i) {
    if (knots_[i].second >= knots_[i - 1].second) return false;
  }
  return true;
}

double PiecewiseLinear::inverse(double y) const {
  const bool inc = monotone_increasing();
  const bool dec = monotone_decreasing();
  HEMP_REQUIRE(inc || dec, "PiecewiseLinear::inverse: y values must be monotone");
  // Normalize to an increasing search.
  auto y_at = [&](std::size_t i) { return knots_[i].second; };
  const std::size_t n = knots_.size();
  if (inc) {
    if (y <= y_at(0)) return knots_.front().first;
    if (y >= y_at(n - 1)) return knots_.back().first;
    for (std::size_t i = 1; i < n; ++i) {
      if (y <= y_at(i)) {
        const double t = (y - y_at(i - 1)) / (y_at(i) - y_at(i - 1));
        return knots_[i - 1].first + t * (knots_[i].first - knots_[i - 1].first);
      }
    }
  } else {
    if (y >= y_at(0)) return knots_.front().first;
    if (y <= y_at(n - 1)) return knots_.back().first;
    for (std::size_t i = 1; i < n; ++i) {
      if (y >= y_at(i)) {
        const double t = (y - y_at(i - 1)) / (y_at(i) - y_at(i - 1));
        return knots_[i - 1].first + t * (knots_[i].first - knots_[i - 1].first);
      }
    }
  }
  throw ConvergenceError("PiecewiseLinear::inverse: lookup failed");
}

}  // namespace hemp
