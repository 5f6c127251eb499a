#include "harvester/pv_cell.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/numeric.hpp"

namespace hemp {

void PvCellParams::validate() const {
  HEMP_REQUIRE(isc_full_sun.value() > 0.0, "PvCell: Isc must be positive");
  HEMP_REQUIRE(voc_full_sun.value() > 0.0, "PvCell: Voc must be positive");
  HEMP_REQUIRE(series_junctions >= 1, "PvCell: need >= 1 junction");
  HEMP_REQUIRE(ideality >= 1.0 && ideality <= 2.5,
               "PvCell: ideality factor out of physical range [1, 2.5]");
  HEMP_REQUIRE(thermal_voltage.value() > 0.0, "PvCell: thermal voltage must be positive");
  HEMP_REQUIRE(series_resistance.value() >= 0.0, "PvCell: Rs must be non-negative");
  HEMP_REQUIRE(shunt_resistance.value() > 0.0, "PvCell: Rsh must be positive");
}

PvCell::PvCell(const PvCellParams& params) : params_(params) {
  params_.validate();
  i0_ = saturation_current();
}

Volts PvCell::stack_vt() const {
  return Volts(params_.series_junctions * params_.ideality *
               params_.thermal_voltage.value());
}

Amps PvCell::saturation_current() const {
  // At open circuit under full sun: Iph = I0 (exp(Voc/stack_vt) - 1) + Voc/Rsh.
  const double voc = params_.voc_full_sun.value();
  const double iph = params_.isc_full_sun.value();
  const double denom = std::expm1(voc / stack_vt().value());
  const double shunt_leak = voc / params_.shunt_resistance.value();
  HEMP_REQUIRE(iph > shunt_leak,
               "PvCell: shunt resistance too small for the requested Voc");
  return Amps((iph - shunt_leak) / denom);
}

Amps PvCell::photocurrent(double g) const {
  HEMP_CHECK_RANGE(g >= 0.0 && g <= 1.5, "PvCell: irradiance fraction out of range");
  return params_.isc_full_sun * g;
}

Amps PvCell::current(Volts v, double g) const {
  HEMP_CHECK_RANGE(v.value() >= 0.0, "PvCell: negative terminal voltage");
  const double iph = photocurrent(g).value();
  if (iph == 0.0) return Amps(0.0);
  const double rs = params_.series_resistance.value();
  const double rsh = params_.shunt_resistance.value();
  const double nvt = stack_vt().value();

  // Implicit KCL at the internal node: f(I) = Iph - Id(V + I Rs) - Ish - I = 0.
  auto f = [&](double i) {
    const double vj = v.value() + i * rs;
    return iph - i0_.value() * std::expm1(vj / nvt) - vj / rsh - i;
  };
  // I is bracketed by [something <= actual, Iph]: f is strictly decreasing in I.
  const double lo = -iph;  // allow slightly negative internal solutions near Voc
  const double hi = iph;
  const double f_hi = f(hi);
  if (f_hi > 0.0) {
    // Numerically possible at V = 0 with Rsh loss ~ 0; current is just Iph.
    return Amps(iph);
  }
  const double f_lo = f(lo);
  if (f_lo < 0.0) {
    // Deeply forward-biased: terminal current would be negative; the front-end
    // ideal diode blocks it.
    return Amps(0.0);
  }
  const double i =
      numeric::brent_root_with_ends(f, lo, hi, f_lo, f_hi, {.x_tol = 1e-12});
  return Amps(std::max(i, 0.0));
}

Watts PvCell::power(Volts v, double g) const { return v * current(v, g); }

Volts PvCell::open_circuit_voltage(double g) const {
  if (g <= 0.0) return Volts(0.0);
  // Find V where terminal current hits zero.  Search up to a little past the
  // full-sun Voc (Voc grows logarithmically with G but we cap G at 1.5).
  const double vmax = params_.voc_full_sun.value() * 1.2;
  // current() clamps at zero, so solve the unclamped diode equation at I = 0
  // instead.
  const double iph = photocurrent(g).value();
  const double rsh = params_.shunt_resistance.value();
  const double nvt = stack_vt().value();
  auto f_oc = [&](double v) { return iph - i0_.value() * std::expm1(v / nvt) - v / rsh; };
  const double f_vmax = f_oc(vmax);
  if (f_vmax > 0.0) return Volts(vmax);
  return Volts(numeric::brent_root_with_ends(f_oc, 0.0, vmax, f_oc(0.0), f_vmax,
                                             {.x_tol = 1e-9}));
}

Amps PvCell::short_circuit_current(double g) const { return current(Volts(0.0), g); }

PvCellParams scaled_pv_params(double pv_scale, const PvCellParams& base) {
  PvCellParams p = base;
  p.isc_full_sun = base.isc_full_sun * pv_scale;
  return p;
}

PvCell make_ixys_kxob22_cell() { return PvCell(PvCellParams{}); }

PvCell make_ixys_kxob22_cell_at(double temperature_c) {
  HEMP_REQUIRE(temperature_c >= -40.0 && temperature_c <= 125.0,
               "PvCell: panel temperature outside operating range");
  PvCellParams p;
  const double dt = temperature_c - 25.0;
  p.voc_full_sun = Volts(p.voc_full_sun.value() - 2.1e-3 * p.series_junctions * dt);
  p.isc_full_sun = Amps(p.isc_full_sun.value() * (1.0 + 5e-4 * dt));
  p.thermal_voltage =
      Volts(p.thermal_voltage.value() * (temperature_c + 273.15) / 298.15);
  return PvCell(p);
}

}  // namespace hemp
