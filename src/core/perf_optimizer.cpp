#include "core/perf_optimizer.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "common/solver_stats.hpp"

namespace hemp {

PerformanceOptimizer::PerformanceOptimizer(const SystemModel& model)
    : model_(&model) {}

PerfPoint PerformanceOptimizer::unregulated(double g) const {
  const Processor& proc = model_->processor();
  const PvCell& cell = model_->cell();
  if (g <= 0.0) return {};

  const double v_lo = proc.min_voltage().value();
  const double v_hi = std::min(proc.max_voltage().value(),
                               cell.open_circuit_voltage(g).value());
  if (v_hi <= v_lo) return {};

  // Surplus of solar power over full-speed processor draw on the shared node.
  auto surplus = [&](double v) {
    return cell.power(Volts(v), g).value() - proc.max_power(Volts(v)).value();
  };

  PerfPoint out;
  if (surplus(v_hi) >= 0.0) {
    // Harvester out-powers the core everywhere: run flat out at max voltage.
    out.vdd = Volts(v_hi);
  } else if (surplus(v_lo) <= 0.0) {
    // Even the lowest operating point cannot be fed at full speed.
    return {};
  } else {
    out.vdd = Volts(numeric::brent_root(surplus, v_lo, v_hi, {.x_tol = 1e-7}));
  }
  out.frequency = proc.max_frequency(out.vdd);
  out.processor_power = proc.max_power(out.vdd);
  out.harvested_power = cell.power(out.vdd, g);
  out.efficiency = 1.0;
  out.feasible = true;
  return out;
}

PerfPoint PerformanceOptimizer::regulated(double g) const {
  const Processor& proc = model_->processor();
  if (g <= 0.0) return {};
  solver_stats::count_exact_regulated_solve();
  // One MPP lookup per solve: the surplus probes below (up to 128 grid
  // points plus the Brent refinement) share it instead of each taking the
  // model memo's lock (parallel sweeps share one model).
  const MaxPowerPoint point = model_->mpp(g);

  const double v_lo = proc.min_voltage().value();
  const double v_hi = proc.max_voltage().value();

  // Budget surplus at full speed.  delivered_power is 0 outside the
  // regulator envelope, so infeasible voltages read as negative surplus.
  auto surplus = [&](double v) {
    return model_->delivered_power(Volts(v), point).value() -
           proc.max_power(Volts(v)).value();
  };

  // The surplus can be non-monotone near regulator ratio switches; find the
  // highest feasible voltage with a descending grid scan + local refinement.
  constexpr int kGrid = 128;
  double v_found = -1.0;
  double prev_v = v_hi;
  if (surplus(v_hi) >= 0.0) {
    v_found = v_hi;
  } else {
    for (int i = 1; i <= kGrid; ++i) {
      const double v = v_hi - (v_hi - v_lo) * i / kGrid;
      if (surplus(v) >= 0.0) {
        // Feasible at v, infeasible at prev_v: refine the boundary.
        v_found = numeric::brent_root(surplus, v, prev_v, {.x_tol = 1e-7});
        break;
      }
      prev_v = v;
    }
  }
  if (v_found < 0.0) return {};

  PerfPoint out;
  out.vdd = Volts(v_found);
  out.frequency = proc.max_frequency(out.vdd);
  out.processor_power = proc.max_power(out.vdd);
  out.harvested_power = point.power;
  out.efficiency = model_->efficiency_at(out.vdd, g);
  out.feasible = true;
  return out;
}

PerformanceOptimizer::Comparison PerformanceOptimizer::compare(double g) const {
  Comparison c;
  c.unregulated = unregulated(g);
  c.regulated = regulated(g);
  if (c.unregulated.feasible && c.regulated.feasible &&
      c.unregulated.processor_power.value() > 0.0) {
    c.power_gain =
        c.regulated.processor_power / c.unregulated.processor_power - 1.0;
    c.speed_gain = c.regulated.frequency / c.unregulated.frequency - 1.0;
  }
  return c;
}

}  // namespace hemp
