// Optimal voltage point for performance (paper Sec. IV, Eqs. 1-4, Fig. 6).
//
// Maximize clock frequency subject to the harvested power budget:
//
//   max f_clk(Vdd)   s.t.   P_up(Vdd, f) <= eta(Vdd) * P_mpp       (regulated)
//   max f_clk(V)     s.t.   P_up(V, f)   <= V * I_solar(V)          (raw cell)
//
// The regulated solve decouples the harvester (held at MPP by the converter)
// from the processor voltage; the unregulated solve ties them to one node.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/system_model.hpp"

namespace hemp {

/// Solution of the performance optimization at one light level.
struct PerfPoint {
  Volts vdd{0.0};
  Hertz frequency{0.0};
  /// Power flowing into the processor at the solution.
  Watts processor_power{0.0};
  /// Power extracted from the solar cell at the solution.
  Watts harvested_power{0.0};
  /// Regulator efficiency at the solution (1.0 for the unregulated case).
  double efficiency = 1.0;
  bool feasible = false;
};

class PerformanceOptimizer {
 public:
  explicit PerformanceOptimizer(const SystemModel& model);

  /// Unregulated baseline: the cell terminal is the processor rail; the
  /// operating point is the intersection of the solar I-V curve with the
  /// processor's max-speed load line (Fig. 6a).
  [[nodiscard]] PerfPoint unregulated(double g) const;

  /// Holistically regulated optimum: the largest Vdd whose full-speed power
  /// fits inside eta * P_mpp (Fig. 6b).
  [[nodiscard]] PerfPoint regulated(double g) const;

  /// Speedup and extra power of regulated over unregulated at light level g
  /// (the paper's "+31% power, +18% speed" numbers).
  struct Comparison {
    PerfPoint unregulated;
    PerfPoint regulated;
    double power_gain = 0.0;  ///< regulated/unregulated power - 1 (unit-lint: ratio)
    double speed_gain = 0.0;  ///< regulated/unregulated frequency - 1
  };
  [[nodiscard]] Comparison compare(double g) const;

 private:
  const SystemModel* model_;
};

}  // namespace hemp
