// The physics seam under the runtime controllers (DESIGN.md Sec. 6f).
//
// EnergyManager and MppTrackingController decide the same way on every
// engine; what differs between engines is only where the physics numbers
// behind a decision come from.  A ControlPlant answers exactly those reads:
//
//   * the regulator: can it hold a rail, and at what efficiency;
//   * the processor envelope: voltage limits, f_max(V) and full-speed power
//     (the DVFS ladder is built from these);
//   * Eq. 7's table: the MPP voltage and power for an estimated input power,
//     plus the full-sun MPP the tracker starts from;
//   * the manager's tables: the Fig. 7a low-light crossover power, the
//     holistic MEP at a light level and a job's sprint plan.
//
// The contract: every answer is a pure function of the plant and the call's
// arguments.  The same question asked twice, in any order and at any time,
// gets the same bits.  Callers rely on it both ways: EnergyManager memoizes
// the MEP per light bucket and the last sprint plan, and a plant may build a
// table on its first read instead of at construction (ModelPlant's Eq. 7
// knots, the flat plant's whole Eq. 7 table) without moving a result.
//
// Two plants exist.  ModelPlant (core/model_plant.hpp) solves each answer
// exactly over a SystemModel; the dense loop and the single-node fast path
// run on it.  The fleet batch kernel's flat plant reads the fleet's shared
// hemp::flat surfaces instead (fleet/batch_kernel.cpp).  A test may script a
// plant with no physics at all.
#pragma once

#include "common/units.hpp"
#include "core/mep_optimizer.hpp"
#include "core/sprint_scheduler.hpp"
#include "harvester/iv_curve.hpp"

namespace hemp {

class ControlPlant {
 public:
  virtual ~ControlPlant() = default;

  // --- Regulator.
  [[nodiscard]] virtual bool supports(Volts vin, Volts vout) const = 0;
  [[nodiscard]] virtual double efficiency(Volts vin, Volts vout, Watts pout) const = 0;

  // --- Processor envelope.
  [[nodiscard]] virtual Volts min_voltage() const = 0;
  [[nodiscard]] virtual Volts max_voltage() const = 0;
  [[nodiscard]] virtual Hertz max_frequency(Volts vdd) const = 0;
  [[nodiscard]] virtual Watts max_power(Volts vdd) const = 0;

  // --- Harvester, as the MPP tracker sees it.  The two lookups are Eq. 7's
  // table (non-const: a plant may build or solve it on first read).  The
  // tracker reads them only when a threshold-timer window completes.
  [[nodiscard]] virtual Volts mpp_voltage_for(Watts p_in) = 0;
  [[nodiscard]] virtual Watts mpp_power_for(Watts p_in) = 0;
  [[nodiscard]] virtual MaxPowerPoint full_sun_mpp() const = 0;

  // --- Manager tables.
  /// Input power below which the bypass beats the regulator (Fig. 7a);
  /// zero when one path dominates everywhere.
  [[nodiscard]] virtual Watts crossover_power() const = 0;
  /// Holistic minimum-energy point at light level `g` (Sec. V).
  [[nodiscard]] virtual MepPoint holistic_mep(double g) const = 0;
  /// Two-phase sprint plan for one deadline job (Sec. VI-B).
  [[nodiscard]] virtual SprintPlan sprint_plan(double cycles, Seconds deadline,
                                               double sprint_factor) const = 0;
};

}  // namespace hemp
