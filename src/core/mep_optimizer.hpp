// Minimum-energy-point analysis (paper Sec. V, Eq. 5, Figs. 7b / 11a).
//
// Conventional MEP minimizes the processor's energy per cycle
//   E(V) = E_dyn(V) + E_leak(V)  =  Ceff V^2 + P_leak(V)/f(V).
// The holistic MEP divides by the regulator efficiency at that operating
// point, E_hol(V) = E(V) / eta(V_mpp, V, P(V)), which shifts the minimum to a
// higher voltage (regulators are inefficient at light load / low Vout) and
// saves energy relative to blindly operating at the conventional MEP.
#pragma once

#include "core/system_model.hpp"

namespace hemp {

struct MepPoint {
  Volts vdd{0.0};
  Joules energy_per_cycle{0.0};  ///< at the source for holistic; at the rail otherwise
  Hertz frequency{0.0};
  bool feasible = false;
};

class MepOptimizer {
 public:
  explicit MepOptimizer(const SystemModel& model);

  /// Conventional MEP: regulator ignored (Fig. 7b dashed curve).
  [[nodiscard]] MepPoint conventional() const;

  /// Holistic MEP at light level `g`: regulator efficiency folded in.
  [[nodiscard]] MepPoint holistic(double g) const;

  /// Source-side energy per cycle of running at `vdd` under light `g`
  /// (what the harvesting system actually pays).
  [[nodiscard]] Joules source_energy_per_cycle(Volts vdd, double g) const;

  /// Rail-side energy per cycle at `vdd` (conventional objective).
  [[nodiscard]] Joules rail_energy_per_cycle(Volts vdd) const;

  struct Comparison {
    MepPoint conventional;
    MepPoint holistic;
    /// Upward shift of the minimum-energy voltage (paper: ~ +0.1 V).
    Volts voltage_shift{0.0};
    /// Source-side energy saved by operating at the holistic MEP instead of
    /// the conventional MEP (paper: up to ~31%).
    double energy_saving = 0.0;  // unit-lint: dimensionless fraction saved
  };
  [[nodiscard]] Comparison compare(double g) const;

 private:
  /// source_energy_per_cycle with the harvester MPP already resolved.
  [[nodiscard]] Joules source_energy_per_cycle(Volts vdd,
                                               const MaxPowerPoint& point) const;

  const SystemModel* model_;
};

}  // namespace hemp
