#include "fleet/front_end.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "policy/registry.hpp"
#include "processor/corners.hpp"
#include "trace/generators.hpp"

namespace hemp {

namespace {

/// Node `index`'s identity, drawn from its stream `rng`, in this draw order.
NodeSample draw_node(const FleetScenario& sc, int index, Rng& rng) {
  NodeSample s;
  s.index = index;
  s.pv_scale = rng.uniform(sc.pv_scale_min, sc.pv_scale_max);
  // Log-uniform: capacitor vendors quote decade series, and a fleet spans
  // decades of storage size, not a linear band.
  s.solar_capacitance =
      Farads(std::exp(rng.uniform(std::log(sc.solar_cap_min.value()),
                                  std::log(sc.solar_cap_max.value()))));
  s.conditions.corner = kProcessCorners[rng.weighted(sc.corner_weights.data(),
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

/// One sky from the scenario's light model.
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

}  // namespace

FleetFrontEnd::FleetFrontEnd(FleetScenario scenario)
    : scenario_(std::move(scenario)) {
  scenario_.validate();
  const PolicyRegistry& registry = PolicyRegistry::global();
  if (!scenario_.policy.empty()) {
    policies_ = {&registry.at(scenario_.policy)};
  } else {
    policies_ = {&registry.at("mpp_track"), &registry.at("mep_hold")};
  }
}

std::optional<IrradianceTrace> FleetFrontEnd::shared_sky() const {
  if (!scenario_.shares_sky()) return std::nullopt;
  // Drawn from a stream no node uses.
  Rng rng = Rng(scenario_.seed).fork(~0ULL);
  return draw_sky(scenario_, rng);
}

NodeSample FleetFrontEnd::sample(int index) const {
  Rng rng = Rng(scenario_.seed).fork(static_cast<std::uint64_t>(index));
  return draw_node(scenario_, index, rng);
}

NodeDraw FleetFrontEnd::draw(int index) const {
  // One stream per node: the sampling draws come first, then (for per-node
  // skies) the trace draws continue on the same stream.
  Rng rng = Rng(scenario_.seed).fork(static_cast<std::uint64_t>(index));
  const NodeSample s = draw_node(scenario_, index, rng);
  std::optional<IrradianceTrace> sky;
  if (!scenario_.shares_sky()) sky.emplace(draw_sky(scenario_, rng));
  return {s, scaled_pv_params(s.pv_scale), make_test_chip_at(s.conditions),
          std::move(sky), workload(s), &policy(s)};
}

PolicyWorkload FleetFrontEnd::workload(const NodeSample& s) const {
  return {scenario_.job_cycles, scenario_.job_period, scenario_.job_deadline,
          s.job_phase};
}

const EnergyPolicy& FleetFrontEnd::policy(const NodeSample& s) const {
  return *policies_[policies_.size() == 1 || !s.min_energy ? 0 : 1];
}

FleetReport FleetFrontEnd::run(const std::function<NodeResult(int)>& run_node,
                               const SweepOptions& opts) const {
  std::vector<NodeResult> results(static_cast<std::size_t>(scenario_.nodes));
  const auto one = [&](std::size_t i) { results[i] = run_node(static_cast<int>(i)); };
  if (opts.parallel) {
    parallel_for(opts.pool != nullptr ? *opts.pool : ThreadPool::shared(),
                 results.size(), one);
  } else {
    for (std::size_t i = 0; i < results.size(); ++i) one(i);
  }
  return aggregate(scenario_, std::move(results));
}

NodeResult node_result(const NodeSample& sample, const SimTotals& totals,
                       const PolicyJobStats& jobs, double mppt_error) {
  NodeResult r;
  r.sample = sample;
  r.cycles = totals.cycles;
  r.brownouts = totals.brownouts;
  r.timing_faults = totals.timing_faults;
  r.jobs_submitted = jobs.submitted;
  r.jobs_completed = jobs.completed;
  r.jobs_missed = jobs.missed;
  r.deadline_hit_rate = jobs.hit_rate();
  r.mppt_error = mppt_error;
  r.harvested = totals.harvested;
  r.delivered = totals.delivered_to_processor;
  r.halted = totals.halted_time;
  r.energy_per_job = jobs.completed > 0
                         ? totals.delivered_to_processor / jobs.completed
                         : Joules(0.0);
  return r;
}

}  // namespace hemp
