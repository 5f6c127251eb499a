#include "core/mep_optimizer.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/numeric.hpp"

namespace hemp {

MepOptimizer::MepOptimizer(const SystemModel& model) : model_(&model) {}

Joules MepOptimizer::rail_energy_per_cycle(Volts vdd) const {
  return model_->processor().energy_per_cycle(vdd);
}

Joules MepOptimizer::source_energy_per_cycle(Volts vdd, double g) const {
  return source_energy_per_cycle(vdd, model_->mpp(g));
}

Joules MepOptimizer::source_energy_per_cycle(Volts vdd,
                                             const MaxPowerPoint& point) const {
  const Processor& proc = model_->processor();
  const Regulator& reg = model_->regulator();
  const Joules rail = proc.energy_per_cycle(vdd);
  if (!reg.supports(point.voltage, vdd)) {
    return Joules(std::numeric_limits<double>::infinity());
  }
  const Watts load = proc.max_power(vdd);
  const double eta = reg.efficiency(point.voltage, vdd, load);
  if (eta <= 0.0) return Joules(std::numeric_limits<double>::infinity());
  return Joules(rail.value() / eta);
}

MepPoint MepOptimizer::conventional() const {
  const Processor& proc = model_->processor();
  auto objective = [&](double v) { return rail_energy_per_cycle(Volts(v)).value(); };
  const auto r = numeric::grid_refine_minimize(
      objective, proc.min_voltage().value(), proc.max_voltage().value(),
      {.x_tol = 1e-6, .grid_points = 160});
  MepPoint out;
  out.vdd = Volts(r.x);
  out.energy_per_cycle = Joules(r.value);
  out.frequency = proc.max_frequency(out.vdd);
  out.feasible = true;
  return out;
}

MepPoint MepOptimizer::holistic(double g) const {
  const Processor& proc = model_->processor();
  // One MPP lookup per solve, shared by every objective probe.
  const MaxPowerPoint point = model_->mpp(g);
  auto objective = [&](double v) {
    return source_energy_per_cycle(Volts(v), point).value();
  };
  const auto r = numeric::grid_refine_minimize(
      objective, proc.min_voltage().value(), proc.max_voltage().value(),
      {.x_tol = 1e-6, .grid_points = 160});
  MepPoint out;
  if (!std::isfinite(r.value)) return out;
  out.vdd = Volts(r.x);
  out.energy_per_cycle = Joules(r.value);
  out.frequency = proc.max_frequency(out.vdd);
  out.feasible = true;
  return out;
}

MepOptimizer::Comparison MepOptimizer::compare(double g) const {
  Comparison c;
  c.conventional = conventional();
  c.holistic = holistic(g);
  if (c.conventional.feasible && c.holistic.feasible) {
    c.voltage_shift = c.holistic.vdd - c.conventional.vdd;
    // What the source pays at each choice of operating voltage.
    const double at_conventional =
        source_energy_per_cycle(c.conventional.vdd, g).value();
    const double at_holistic = c.holistic.energy_per_cycle.value();
    if (std::isfinite(at_conventional) && at_conventional > 0.0) {
      c.energy_saving = 1.0 - at_holistic / at_conventional;
    } else {
      // Conventional MEP is not even reachable through this regulator.
      c.energy_saving = 1.0;
    }
  }
  return c;
}

}  // namespace hemp
