// Fleet scenario description: everything that defines a population run.
//
// A scenario is a plain-text `key = value` file (see scenarios/*.scn) naming
// the population size, the master seed, the compressed-day timeline, the
// light model, the node heterogeneity distributions, and the periodic job
// workload.  One scenario + one seed fully determines a FleetReport — the
// fleet front end (fleet/front_end.hpp) derives every stochastic choice from
// Rng(seed).fork(node).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "processor/corners.hpp"
#include "storage/capacitor.hpp"

namespace hemp {

/// Which light model drives the fleet.
enum class TraceKind {
  kConstant,  ///< fixed irradiance (calibration runs)
  kDiurnal,   ///< per-node jittered diurnal arc (clear outdoor day)
  kClouds,    ///< diurnal arc shaded by a random cloud field
  kIndoor,    ///< duty-cycled indoor lighting
  kCsv,       ///< recorded trace replayed from trace_csv (always shared)
};

TraceKind trace_kind_from_string(const std::string& name);
std::string to_string(TraceKind kind);

struct FleetScenario {
  std::string name = "fleet";
  int nodes = 64;
  std::uint64_t seed = 1;

  // --- Timeline: one physical day compressed into a short transient window
  // (the diurnal builder's documented use), integrated at `time_step`.
  Seconds day_length{0.25};
  Seconds time_step{5e-6};
  Seconds waveform_interval{250e-6};

  // --- Light model.
  TraceKind trace_kind = TraceKind::kDiurnal;
  /// true: every node sees the same sky (one sampled trace); false: each
  /// node gets its own independently seeded trace.  CSV replay is always
  /// shared (the recording *is* the sky).
  bool shared_trace = false;
  double constant_g = 1.0;  ///< level for TraceKind::kConstant
  std::string trace_csv;    ///< recording path for TraceKind::kCsv
  /// Knot-coarsening budget for the event engines' flattened traces: the
  /// absorbed-irradiance error allowed per simulated second (sun fraction;
  /// the per-trace budget handed to flat::FlatTrace::coarsen is this times
  /// day_length).  Zero keeps every flattened knot.  The batch kernel and
  /// the reference kernel's fast-path nodes (SocConfig::trace_coarsen_eps)
  /// read it; dense-loop nodes sample the exact profile.
  double trace_coarsen_eps = 1e-3;

  // --- Node heterogeneity: PV size (Isc scale), storage capacitance
  // (log-uniform), fab corner (weighted SS/TT/FF), junction temperature
  // (normal, clamped to [-20, 85] C), and controller policy mix.
  double pv_scale_min = 0.6;
  double pv_scale_max = 1.4;
  Farads solar_cap_min{22e-6};
  Farads solar_cap_max{100e-6};
  Farads vdd_cap = kVddRailCapacitance;
  std::array<double, 3> corner_weights{0.2, 0.6, 0.2};  ///< SS, TT, FF
  double temperature_mean_c = 25.0;
  double temperature_sigma_c = 8.0;
  /// Fraction of nodes running the min-energy (holistic MEP) policy; the
  /// rest run max-performance MPP tracking.
  double min_energy_fraction = 0.25;  // unit-lint: dimensionless fraction
  /// Registered energy-policy name forcing every node onto one policy
  /// (overrides the min_energy mix).  Empty keeps the legacy sampled mix.
  /// Validated against the policy registry by the consumers (FleetSimulator,
  /// BatchFleetKernel), not here — the scenario layer stays registry-free.
  std::string policy;

  // --- Periodic deadline jobs (0 cycles disables the workload).
  double job_cycles = 2e6;
  Seconds job_period{0.04};
  Seconds job_deadline{8e-3};

  void validate() const;

  /// True when the whole fleet sees one sky: shared_trace, a CSV replay or
  /// a constant level.
  [[nodiscard]] bool shares_sky() const {
    return shared_trace || trace_kind == TraceKind::kCsv ||
           trace_kind == TraceKind::kConstant;
  }

  /// Set one field from its scenario-file key and value text, the one
  /// parser behind scenario files and command-line overrides.  An unknown
  /// key or a malformed value throws ModelError; `nodes` and `seed` take
  /// whole integers only.  Does not validate().
  void set(const std::string& key, const std::string& value);

  /// Parse a scenario from `key = value` text ('#' comments, blank lines
  /// allowed) through set(), then validate().  Unknown keys throw
  /// ModelError — typos must not silently fall back to defaults.
  static FleetScenario from_string(const std::string& text);
  /// Parse a scenario file.
  static FleetScenario from_file(const std::string& path);
};

/// The sampled identity of one node (drawn from the scenario distributions).
struct NodeSample {
  int index = 0;
  double pv_scale = 1.0;  ///< Isc multiplier standing in for panel area
  Farads solar_capacitance = kSolarNodeCapacitance;
  OperatingConditions conditions{};
  bool min_energy = false;  ///< controller policy: MEP hold vs MPP tracking
  Seconds job_phase{0.0};   ///< offset of the first periodic job
};

}  // namespace hemp
