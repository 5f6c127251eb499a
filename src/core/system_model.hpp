// Holistic system model: harvester + regulator + processor viewed as one
// optimization target (the paper's central idea, Sec. I contribution 1).
//
// Everything the optimizers need reduces to two curves:
//   * delivered_power(Vdd, G): how much power reaches the rail at Vdd when the
//     regulator holds the solar cell at its maximum power point — found by a
//     self-consistent solve because regulator efficiency depends on load;
//   * Processor::max_power(Vdd): what the core consumes at full speed.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>

#include "common/units.hpp"
#include "harvester/iv_curve.hpp"
#include "harvester/pv_cell.hpp"
#include "processor/processor.hpp"
#include "regulator/regulator.hpp"

namespace hemp {

class SystemModel {
 public:
  /// Non-owning view over the three subsystems; they must outlive the model.
  SystemModel(const PvCell& cell, const Regulator& regulator,
              const Processor& processor);

  [[nodiscard]] const PvCell& cell() const { return *cell_; }
  [[nodiscard]] const Regulator& regulator() const { return *regulator_; }
  [[nodiscard]] const Processor& processor() const { return *processor_; }

  /// MPP of the harvester at irradiance `g`.  Results are memoized on
  /// irradiance quantized to `kMppCacheQuantum` steps: the solve runs at the
  /// quantized irradiance, so two queries within half a quantum of each other
  /// return the same point regardless of query order.  The induced error is
  /// below ~1e-6 relative in MPP power (the cell curves are smooth in g),
  /// far under the model's physical fidelity.  When the cache reaches
  /// `kMppCacheCapacity` entries it is cleared and keeps caching rather than
  /// silently degrading to solve-per-call.  Thread-safe (mutex-guarded).
  [[nodiscard]] MaxPowerPoint mpp(double g) const;

  /// Irradiance quantization step of the MPP cache (fraction of full sun).
  static constexpr double kMppCacheQuantum = 1e-6;
  /// Entry cap; reaching it flushes the cache instead of disabling it.
  static constexpr std::size_t kMppCacheCapacity = 4096;

  /// Power delivered to the rail at `vdd` when the converter input sits at
  /// the harvester MPP and all harvested power flows through the regulator.
  /// Solves  pout = eta(v_mpp, vdd, pout) * p_mpp  for pout; returns 0 when
  /// the regulator cannot regulate (v_mpp, vdd).
  [[nodiscard]] Watts delivered_power(Volts vdd, double g) const;

  /// delivered_power with the harvester MPP already resolved: the same
  /// solve, bit for bit, without the memo lookup.  A solver probing many
  /// voltages at one light level resolves `mpp(g)` once and calls this, so
  /// threads sharing one model do not serialize on the memo's mutex.
  [[nodiscard]] Watts delivered_power(Volts vdd, const MaxPowerPoint& point) const;

  /// Power available at `vdd` without any regulator: the raw solar cell
  /// output with its terminal tied to the rail (Fig. 6a intersection logic).
  [[nodiscard]] Watts unregulated_power(Volts vdd, double g) const;

  /// Regulator efficiency at the operating point implied by delivered_power.
  [[nodiscard]] double efficiency_at(Volts vdd, double g) const;

 private:
  const PvCell* cell_;
  const Regulator* regulator_;
  const Processor* processor_;
  mutable std::mutex mpp_mutex_;
  mutable std::map<std::int64_t, MaxPowerPoint> mpp_cache_;
};

}  // namespace hemp
