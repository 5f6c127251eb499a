#include "core/regulator_selector.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/numeric.hpp"

namespace hemp {

RegulatorSelector::RegulatorSelector(const SystemModel& model)
    : optimizer_(model) {}

PathDecision RegulatorSelector::decide(double g) const {
  PathDecision d;
  d.regulated = optimizer_.regulated(g);
  d.unregulated = optimizer_.unregulated(g);
  const double p_reg = d.regulated.feasible ? d.regulated.processor_power.value() : 0.0;
  const double p_raw =
      d.unregulated.feasible ? d.unregulated.processor_power.value() : 0.0;
  if (p_raw > 0.0) {
    d.regulator_advantage = p_reg / p_raw - 1.0;
  } else {
    d.regulator_advantage = p_reg > 0.0 ? 1.0 : 0.0;
  }
  d.use_regulator = p_reg >= p_raw && d.regulated.feasible;
  return d;
}

std::optional<double> RegulatorSelector::crossover_irradiance(double g_min,
                                                              double g_max) const {
  HEMP_REQUIRE(0.0 < g_min && g_min < g_max, "RegulatorSelector: bad search range");
  auto advantage = [&](double g) { return decide(g).regulator_advantage; };
  const double lo = advantage(g_min);
  const double hi = advantage(g_max);
  if (std::signbit(lo) == std::signbit(hi)) return std::nullopt;
  return numeric::bisect_root(advantage, g_min, g_max, {.x_tol = 1e-4});
}

}  // namespace hemp
