// Energy-storage capacitor at the solar node (the battery replacement of the
// battery-less SoC, paper Fig. 1 / Sec. II).
//
// Tracks terminal voltage under net charge flow and keeps energy-conservation
// bookkeeping that the simulator's invariant tests check against.
#pragma once

#include "common/units.hpp"

namespace hemp {

/// The default SoC's solar-node storage capacitor: SocConfig, the MPP
/// tracker's Eq. 7, policy contexts and unsampled fleet nodes start here.
inline constexpr Farads kSolarNodeCapacitance{47e-6};
/// The default SoC's Vdd-rail capacitor.
inline constexpr Farads kVddRailCapacitance{10e-6};

class Capacitor {
 public:
  Capacitor(Farads capacitance, Volts initial_voltage);

  [[nodiscard]] Farads capacitance() const { return capacitance_; }
  [[nodiscard]] Volts voltage() const { return voltage_; }
  [[nodiscard]] Joules stored_energy() const {
    return capacitor_energy(capacitance_, voltage_);
  }

  /// Apply a net current for `dt` (positive = charging).  Voltage clamps at
  /// zero; charge that would drive it negative is dropped (the rail cannot
  /// reverse).  Returns the voltage after the step.
  Volts apply_current(Amps net, Seconds dt);

  /// Apply a net power flow for `dt` (positive = into the cap), integrating
  /// dV/dt = P / (C V).  Uses the exact energy-balance update
  /// V' = sqrt(V^2 + 2 P dt / C), which conserves energy for any step size.
  Volts apply_power(Watts net, Seconds dt);

  /// Force the voltage (initialization / hard reset paths only).
  void set_voltage(Volts v);

  /// Cumulative energy delivered into (+) and out of (-) the cap since
  /// construction; stored_energy() - initial_energy() == net_energy_in().
  [[nodiscard]] Joules net_energy_in() const { return net_energy_in_; }
  [[nodiscard]] Joules initial_energy() const { return initial_energy_; }

 private:
  Farads capacitance_;
  Volts voltage_;
  Joules initial_energy_;
  Joules net_energy_in_{0.0};
};

}  // namespace hemp
