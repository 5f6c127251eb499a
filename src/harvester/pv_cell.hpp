// Single-diode photovoltaic cell/panel model.
//
// Substitutes for the paper's measured IXYS KX0B22-04X3F cell (Fig. 2): a
// monocrystalline mini-panel with three junctions in series, ~22% conversion
// efficiency, Voc ~ 1.5 V and Isc ~ 15 mA under full outdoor sun.  The model is
//
//   I(V) = Iph(G) - I0 * (exp((V + I*Rs) / (Ns*n*Vt)) - 1) - (V + I*Rs) / Rsh
//
// solved implicitly for I at each terminal voltage V.  Photocurrent scales
// linearly with irradiance G (fraction of full sun), which reproduces the
// measured behaviour that Isc scales with light while Voc falls only
// logarithmically — exactly the property the holistic optimizer exploits.
#pragma once

#include "common/units.hpp"

namespace hemp {

/// The defaults are the paper's harvester at 25 C (make_ixys_kxob22_cell).
struct PvCellParams {
  /// Short-circuit current under full sun (G = 1).
  Amps isc_full_sun{15e-3};
  /// Open-circuit voltage under full sun; fixes the diode saturation current.
  Volts voc_full_sun{1.5};
  /// Number of series junctions in the panel (IXYS KX0B22-04X3F has 3... wired
  /// in series to reach ~1.5 V).
  int series_junctions = 3;
  /// Diode ideality factor.
  double ideality = 1.5;
  /// Thermal voltage kT/q at operating temperature.
  Volts thermal_voltage{0.02585};
  /// Series resistance (contacts, fingers).
  Ohms series_resistance{2.0};
  /// Shunt resistance (leakage paths across the junction).
  Ohms shunt_resistance{12e3};

  /// Validate physical plausibility; throws ModelError.
  void validate() const;
};

/// A PV generator with a fixed parameter set, queried at an irradiance level.
class PvCell {
 public:
  explicit PvCell(const PvCellParams& params = {});

  /// Terminal current at voltage `v` under irradiance fraction `g` in [0, ~1.2].
  /// Negative currents (cell forward-biased past Voc) clamp to zero: the
  /// harvesting front-end blocks reverse flow with an ideal diode.
  [[nodiscard]] Amps current(Volts v, double g) const;

  /// Electrical output power at voltage `v` under irradiance `g`.
  [[nodiscard]] Watts power(Volts v, double g) const;

  /// Open-circuit voltage under irradiance `g` (V where I crosses zero).
  [[nodiscard]] Volts open_circuit_voltage(double g) const;

  /// Short-circuit current under irradiance `g`.
  [[nodiscard]] Amps short_circuit_current(double g) const;

  [[nodiscard]] const PvCellParams& params() const { return params_; }

 private:
  /// Photocurrent at irradiance g.
  [[nodiscard]] Amps photocurrent(double g) const;
  /// Diode saturation current fixed by (Isc, Voc) at full sun.
  [[nodiscard]] Amps saturation_current() const;
  /// One junction-stack thermal scale Ns * n * Vt.
  [[nodiscard]] Volts stack_vt() const;

  PvCellParams params_;
  Amps i0_{0.0};  // cached saturation current
};

/// `base` with its short-circuit current scaled by `pv_scale`: the panel-area
/// factor a fleet node samples and the flat surfaces tabulate.
[[nodiscard]] PvCellParams scaled_pv_params(double pv_scale,
                                            const PvCellParams& base = {});

/// Factory for the paper's harvester: IXYS KX0B22-04X3F, 22x7 mm, 22% efficient
/// monocrystalline cell (paper Sec. II-A, Fig. 2), at 25 C.
PvCell make_ixys_kxob22_cell();

/// The same cell at a junction temperature in Celsius.  Standard silicon
/// coefficients: Voc -2.1 mV/K per junction, Isc +0.05%/K, and the diode
/// thermal voltage kT/q scales with absolute temperature.  Heat costs power:
/// the MPP voltage and power both sag on a hot panel.
PvCell make_ixys_kxob22_cell_at(double temperature_c);

}  // namespace hemp
