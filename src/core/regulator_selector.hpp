// Light-dependent regulator/bypass selection (paper Sec. IV-B, Fig. 7a).
//
// Under strong light the converter wins: it lets the cell sit at MPP while
// the core runs at a lower Vdd.  Under weak light the converter's light-load
// losses exceed the MPP gain and bypassing (raw cell on the rail) delivers
// more power.  The paper's rule of thumb: below ~25% of full sun, bypass.
#pragma once

#include <optional>
#include <vector>

#include "core/perf_optimizer.hpp"
#include "core/system_model.hpp"

namespace hemp {

struct PathDecision {
  bool use_regulator = true;
  /// Best full-speed operating point down each path.
  PerfPoint regulated;
  PerfPoint unregulated;
  /// delivered(regulated)/delivered(unregulated) - 1; negative favours bypass.
  double regulator_advantage = 0.0;
};

class RegulatorSelector {
 public:
  explicit RegulatorSelector(const SystemModel& model);

  /// Decide the power path at light level `g` by comparing the processor
  /// power achievable down each path.
  [[nodiscard]] PathDecision decide(double g) const;

  /// Irradiance below which bypass beats the regulator (the Fig. 7a
  /// crossover).  Returns nullopt when one path dominates everywhere in
  /// (g_min, g_max).  The default lower bound is the dimmest light at which
  /// either path can still run the core at all.
  [[nodiscard]] std::optional<double> crossover_irradiance(double g_min = 0.05,
                                                           double g_max = 1.0) const;

 private:
  PerformanceOptimizer optimizer_;
};

}  // namespace hemp
