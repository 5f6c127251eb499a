// hemp_analyzer fixture: raw-double physical quantities in a header, one of
// every declaration shape the unit-boundary check covers there.  The selftest
// asserts the exact key set.
#pragma once

namespace fixture {

// Namespace-scope variables.
constexpr double kMaxPower = 1.0;
double global_energy = 0.0;
double supply_v{0.0};
double plain_ratio = 0.5;

struct Probe {
  double bus_voltage = 0.0;
  double samples_v[4] = {};
  double gain = 1.0;  // unit-lint: dimensionless ratio
  double trim_current = 0.0;  // unit-lint: same-line marker
  int tick_count = 0;
  // hemp-analyzer: allow(unit-boundary) — fixture: next-line marker
  void set_bias(double& bias_power);
};

// A `/*` inside a line comment, e.g. scenarios/*.scn, must not open a block
// comment: the regression this guards against blanked the lines below.
inline double input_power(double load_current) {
  double scratch_power = load_current * 2.0;
  for (double step_energy = 0.0; step_energy < 1.0; step_energy += 0.5) {
    scratch_power += step_energy;
  }
  return scratch_power;
}

inline void read_rail(double& out_voltage) { out_voltage = 1.0; }

inline double
harvest_energy(double panel_voltage,
               double
                   panel_charge) {
  return panel_voltage * panel_charge;
}

}  // namespace fixture
