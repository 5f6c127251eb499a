#include "harvester/iv_curve.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "common/solver_stats.hpp"

namespace hemp {

IvCurve::IvCurve(const PvCell& cell, double irradiance, int samples)
    : irradiance_(irradiance) {
  HEMP_REQUIRE(samples >= 8, "IvCurve: need >= 8 samples");
  const Volts voc = cell.open_circuit_voltage(irradiance);
  points_.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const Volts v(voc.value() * i / (samples - 1));
    points_.push_back({v, cell.current(v, irradiance)});
  }
}

Amps IvCurve::current_at(Volts v) const {
  if (v <= points_.front().voltage) return points_.front().current;
  if (v >= points_.back().voltage) return points_.back().current;
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), v,
      [](Volts x, const IvPoint& p) { return x < p.voltage; });
  const IvPoint& a = *(it - 1);
  const IvPoint& b = *it;
  const double t = (v - a.voltage) / (b.voltage - a.voltage);
  return a.current + t * (b.current - a.current);
}

Watts IvCurve::power_at(Volts v) const { return v * current_at(v); }

MaxPowerPoint find_mpp(const PvCell& cell, double irradiance) {
  if (irradiance <= 0.0) return {Volts(0.0), Amps(0.0), Watts(0.0)};
  solver_stats::count_exact_mpp_solve();
  const Volts voc = cell.open_circuit_voltage(irradiance);
  // P(V) = V * I(V) is strictly concave on [0, Voc] — I falls and is concave
  // there, and P is zero wherever the front-end blocks reverse current — so
  // the concave grid search returns the full 96-point scan's result exactly.
  auto p = [&](double v) { return cell.power(Volts(v), irradiance).value(); };
  const auto r = numeric::concave_grid_refine_maximize(
      p, 0.0, voc.value(), {.x_tol = 1e-6, .grid_points = 96});
  const Volts vmpp(r.x);
  return {vmpp, cell.current(vmpp, irradiance), Watts(r.value)};
}

double mpp_capture_ratio(const PvCell& cell, double irradiance, Volts v) {
  const MaxPowerPoint mpp = find_mpp(cell, irradiance);
  if (mpp.power.value() <= 0.0) return 0.0;
  return cell.power(v, irradiance) / mpp.power;
}

}  // namespace hemp
