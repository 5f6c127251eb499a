#include "fleet/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <system_error>
#include <type_traits>

#include "common/error.hpp"
#include "trace/generators.hpp"

namespace hemp {

TraceKind trace_kind_from_string(const std::string& name) {
  if (name == "constant") return TraceKind::kConstant;
  if (name == "diurnal") return TraceKind::kDiurnal;
  if (name == "clouds") return TraceKind::kClouds;
  if (name == "indoor") return TraceKind::kIndoor;
  if (name == "csv") return TraceKind::kCsv;
  throw ModelError("FleetScenario: unknown trace kind '" + name + "'");
}

std::string to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::kConstant: return "constant";
    case TraceKind::kDiurnal: return "diurnal";
    case TraceKind::kClouds: return "clouds";
    case TraceKind::kIndoor: return "indoor";
    case TraceKind::kCsv: return "csv";
  }
  throw ModelError("to_string: unknown trace kind");
}

void FleetScenario::validate() const {
  HEMP_REQUIRE(!name.empty(), "FleetScenario: empty name");
  HEMP_REQUIRE(nodes > 0, "FleetScenario: need at least one node");
  HEMP_REQUIRE(day_length.value() > 0.0, "FleetScenario: day_length must be positive");
  HEMP_REQUIRE(time_step.value() > 0.0, "FleetScenario: time_step must be positive");
  HEMP_REQUIRE(waveform_interval >= time_step,
               "FleetScenario: waveform_interval must be >= time_step");
  // The dense loop steps every tick; both engines reserve every sample.
  HEMP_REQUIRE(day_length.value() / time_step.value() <= 1e8,
               "FleetScenario: time_step_us too small: over 1e8 ticks a day");
  HEMP_REQUIRE(day_length.value() / waveform_interval.value() <= 1e6,
               "FleetScenario: waveform_interval_us too small: over 1e6 samples a day");
  HEMP_REQUIRE(constant_g >= 0.0 && constant_g <= 1.0,
               "FleetScenario: constant_g must be in [0, 1]");
  HEMP_REQUIRE(trace_kind != TraceKind::kCsv || !trace_csv.empty(),
               "FleetScenario: trace = csv needs a trace_csv path");
  HEMP_REQUIRE(trace_coarsen_eps >= 0.0,
               "FleetScenario: trace_coarsen_eps must be >= 0");
  HEMP_REQUIRE(0.0 < pv_scale_min && pv_scale_min <= pv_scale_max,
               "FleetScenario: need 0 < pv_scale_min <= pv_scale_max");
  HEMP_REQUIRE(solar_cap_min.value() > 0.0 && solar_cap_min <= solar_cap_max,
               "FleetScenario: need 0 < solar_cap_min <= solar_cap_max");
  HEMP_REQUIRE(vdd_cap.value() > 0.0, "FleetScenario: vdd_cap must be positive");
  double weight_total = 0.0;
  for (const double w : corner_weights) {
    HEMP_REQUIRE(w >= 0.0, "FleetScenario: negative corner weight");
    weight_total += w;
  }
  HEMP_REQUIRE(weight_total > 0.0, "FleetScenario: all corner weights zero");
  HEMP_REQUIRE(temperature_sigma_c >= 0.0,
               "FleetScenario: temperature_sigma_c must be >= 0");
  HEMP_REQUIRE(min_energy_fraction >= 0.0 && min_energy_fraction <= 1.0,
               "FleetScenario: min_energy_fraction must be in [0, 1]");
  HEMP_REQUIRE(job_cycles >= 0.0, "FleetScenario: job_cycles must be >= 0");
  if (job_cycles > 0.0) {
    HEMP_REQUIRE(job_period.value() > 0.0 && job_deadline.value() > 0.0,
                 "FleetScenario: jobs need positive period and deadline");
  }
}

namespace {

double parse_double(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() || !std::isfinite(v)) {
    throw ModelError("FleetScenario: key '" + key + "' needs a finite number, got '" +
                     value + "'");
  }
  return v;
}

/// The whole of `value` as a T: a fraction, an exponent, a sign T cannot
/// hold, NaN or a value outside T's range throws.
template <typename T>
T parse_integer(const std::string& key, const std::string& value) {
  T v{};
  const char* last = value.data() + value.size();
  const auto [end, ec] = std::from_chars(value.data(), last, v);
  if (ec != std::errc() || end != last) {
    throw ModelError("FleetScenario: key '" + key + "' needs " +
                     (std::is_signed_v<T> ? "an" : "a non-negative") +
                     " integer in range, got '" + value + "'");
  }
  return v;
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  throw ModelError("FleetScenario: key '" + key + "' needs true/false, got '" +
                   value + "'");
}

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  const auto last = s.find_last_not_of(" \t\r");
  return first == std::string::npos ? std::string()
                                    : s.substr(first, last - first + 1);
}

}  // namespace

void FleetScenario::set(const std::string& key, const std::string& value) {
  if (key == "name") {
    name = value;
  } else if (key == "nodes") {
    nodes = parse_integer<int>(key, value);
  } else if (key == "seed") {
    seed = parse_integer<std::uint64_t>(key, value);
  } else if (key == "day_length_s") {
    day_length = Seconds(parse_double(key, value));
  } else if (key == "time_step_us") {
    time_step = Seconds(parse_double(key, value) * 1e-6);
  } else if (key == "waveform_interval_us") {
    waveform_interval = Seconds(parse_double(key, value) * 1e-6);
  } else if (key == "trace") {
    trace_kind = trace_kind_from_string(value);
  } else if (key == "shared_trace") {
    shared_trace = parse_bool(key, value);
  } else if (key == "constant_g") {
    constant_g = parse_double(key, value);
  } else if (key == "trace_csv") {
    trace_csv = value;
  } else if (key == "trace_coarsen_eps") {
    trace_coarsen_eps = parse_double(key, value);
  } else if (key == "pv_scale_min") {
    pv_scale_min = parse_double(key, value);
  } else if (key == "pv_scale_max") {
    pv_scale_max = parse_double(key, value);
  } else if (key == "solar_cap_min_uf") {
    solar_cap_min = Farads(parse_double(key, value) * 1e-6);
  } else if (key == "solar_cap_max_uf") {
    solar_cap_max = Farads(parse_double(key, value) * 1e-6);
  } else if (key == "vdd_cap_uf") {
    vdd_cap = Farads(parse_double(key, value) * 1e-6);
  } else if (key == "corner_ss") {
    corner_weights[0] = parse_double(key, value);
  } else if (key == "corner_tt") {
    corner_weights[1] = parse_double(key, value);
  } else if (key == "corner_ff") {
    corner_weights[2] = parse_double(key, value);
  } else if (key == "temperature_mean_c") {
    temperature_mean_c = parse_double(key, value);
  } else if (key == "temperature_sigma_c") {
    temperature_sigma_c = parse_double(key, value);
  } else if (key == "min_energy_fraction") {
    min_energy_fraction = parse_double(key, value);
  } else if (key == "policy") {
    policy = value;
  } else if (key == "job_cycles") {
    job_cycles = parse_double(key, value);
  } else if (key == "job_period_ms") {
    job_period = Seconds(parse_double(key, value) * 1e-3);
  } else if (key == "job_deadline_ms") {
    job_deadline = Seconds(parse_double(key, value) * 1e-3);
  } else {
    throw ModelError("FleetScenario: unknown key '" + key + "'");
  }
}

FleetScenario FleetScenario::from_string(const std::string& text) {
  FleetScenario s;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip trailing comments, then whitespace.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw ModelError("FleetScenario: line " + std::to_string(lineno) +
                       ": expected 'key = value', got '" + line + "'");
    }
    s.set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
  }
  s.validate();
  return s;
}

FleetScenario FleetScenario::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ModelError("FleetScenario: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return from_string(text.str());
}

NodeSample draw_node(const FleetScenario& sc, int index, Rng& rng) {
  NodeSample s;
  s.index = index;
  s.pv_scale = rng.uniform(sc.pv_scale_min, sc.pv_scale_max);
  // Log-uniform: capacitor vendors quote decade series, and a fleet spans
  // decades of storage size, not a linear band.
  s.solar_capacitance =
      Farads(std::exp(rng.uniform(std::log(sc.solar_cap_min.value()),
                                  std::log(sc.solar_cap_max.value()))));
  static constexpr ProcessCorner kCorners[] = {
      ProcessCorner::kSlowSlow, ProcessCorner::kTypical,
      ProcessCorner::kFastFast};
  s.conditions.corner = kCorners[rng.weighted(sc.corner_weights.data(),
                                              sc.corner_weights.size())];
  s.conditions.temperature_c =
      std::clamp(rng.normal(sc.temperature_mean_c, sc.temperature_sigma_c),
                 -20.0, 85.0);
  s.min_energy = rng.uniform() < sc.min_energy_fraction;
  s.job_phase = sc.job_cycles > 0.0
                    ? Seconds(rng.uniform(0.0, sc.job_period.value()))
                    : Seconds(0.0);
  return s;
}

IrradianceTrace draw_sky(const FleetScenario& sc, Rng& rng) {
  switch (sc.trace_kind) {
    case TraceKind::kConstant:
      return IrradianceTrace::constant(sc.constant_g);
    case TraceKind::kDiurnal: {
      DiurnalArcParams params;
      params.day_length = sc.day_length;
      return diurnal_arc(rng, params);
    }
    case TraceKind::kClouds: {
      CloudFieldParams params;
      params.day.day_length = sc.day_length;
      // Scale the default deck (tuned for a 0.25 s compressed day) with the
      // scenario timeline so cloud counts stay day-length invariant.
      const double stretch = sc.day_length.value() / 0.25;
      params.mean_gap = Seconds(0.03 * stretch);
      params.mean_duration = Seconds(0.01 * stretch);
      return cloud_field(rng, params);
    }
    case TraceKind::kIndoor: {
      IndoorDutyParams params;
      params.duration = sc.day_length;
      const double stretch = sc.day_length.value() / 0.25;
      params.mean_on = Seconds(0.04 * stretch);
      params.mean_off = Seconds(0.02 * stretch);
      return indoor_duty(rng, params);
    }
    case TraceKind::kCsv:
      return IrradianceTrace::from_csv(sc.trace_csv);
  }
  throw ModelError("FleetScenario: unknown trace kind");
}

}  // namespace hemp
