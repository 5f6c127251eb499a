#include "fleet/fleet_sim.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "policy/registry.hpp"
#include "processor/corners.hpp"
#include "regulator/switched_cap.hpp"
#include "sim/soc_system.hpp"
#include "sim/sweep.hpp"

namespace hemp {

FleetSimulator::FleetSimulator(FleetScenario scenario)
    : scenario_(std::move(scenario)) {
  scenario_.validate();
  if (!scenario_.policy.empty()) {
    forced_policy_ = &PolicyRegistry::global().at(scenario_.policy);
  }
  if (scenario_.shares_sky()) {
    Rng sky_rng = Rng(scenario_.seed).fork(~0ULL);
    shared_trace_ =
        std::make_shared<const IrradianceTrace>(draw_sky(scenario_, sky_rng));
  }
}

NodeSample FleetSimulator::sample_node(int index) const {
  Rng rng = Rng(scenario_.seed).fork(static_cast<std::uint64_t>(index));
  return draw_node(scenario_, index, rng);
}

namespace {

/// Mean relative MPP-voltage error over the waveform samples where the node
/// was tracking under the regulator with a running clock.  Irradiance is
/// quantized to 0.01-sun buckets before the MPP solve so a day-long record
/// costs at most ~100 solves (served by SystemModel's cache thereafter).
double mppt_tracking_error(const Waveform& wf, const SystemModel& model) {
  const std::vector<double>& v_solar = wf.series("v_solar");
  const std::vector<double>& irradiance = wf.series("irradiance");
  const std::vector<double>& frequency = wf.series("frequency_hz");
  const std::vector<double>& path = wf.series("path");
  double total = 0.0;
  std::size_t samples = 0;
  for (std::size_t i = 0; i < v_solar.size(); ++i) {
    if (path[i] != static_cast<double>(static_cast<int>(PowerPath::kRegulated)))
      continue;
    if (frequency[i] <= 0.0 || irradiance[i] < 0.05) continue;
    const double g = std::round(irradiance[i] * 100.0) / 100.0;
    if (g < 0.05) continue;
    const double v_mpp = model.mpp(g).voltage.value();
    if (v_mpp <= 0.0) continue;
    total += std::abs(v_solar[i] - v_mpp) / v_mpp;
    ++samples;
  }
  return samples > 0 ? total / static_cast<double>(samples) : 0.0;
}

}  // namespace

NodeResult FleetSimulator::run_node(int index,
                                    const IrradianceTrace* shared) const {
  // One stream per node: the sampling draws come first, then (for per-node
  // skies) the trace draws continue on the same stream.
  Rng rng = Rng(scenario_.seed).fork(static_cast<std::uint64_t>(index));
  NodeResult result;
  result.sample = draw_node(scenario_, index, rng);
  const NodeSample& s = result.sample;

  // --- Hardware: sampled PV size, storage, and process corner. --------------
  SocConfig cfg;
  cfg.pv = PvCellParams{};
  cfg.pv.isc_full_sun = cfg.pv.isc_full_sun * s.pv_scale;
  cfg.solar_capacitance = s.solar_capacitance;
  cfg.vdd_capacitance = scenario_.vdd_cap;
  cfg.time_step = scenario_.time_step;
  cfg.waveform_interval = scenario_.waveform_interval;
  cfg.trace_coarsen_eps = scenario_.trace_coarsen_eps;

  const PvCell cell(cfg.pv);
  const SwitchedCapRegulator model_regulator;
  const Processor processor = make_test_chip_at(s.conditions);
  const SystemModel model(cell, model_regulator, processor);

  // --- Controller: the node's policy + the periodic job workload. -----------
  // Without a forced scenario policy the legacy sampled mix routes each node
  // through the ported mpp_track / mep_hold policies — which rebuild exactly
  // the EnergyManager and periodic job clock the pre-policy fleet hardwired,
  // so summary hashes are unchanged.
  const EnergyPolicy& policy =
      forced_policy_ != nullptr
          ? *forced_policy_
          : PolicyRegistry::global().at(s.min_energy ? "mep_hold" : "mpp_track");

  const IrradianceTrace trace = shared ? *shared : draw_sky(scenario_, rng);

  PolicyContext ctx;
  ctx.model = &model;
  ctx.workload = PolicyWorkload{scenario_.job_cycles, scenario_.job_period,
                                scenario_.job_deadline, s.job_phase};
  ctx.day_length = scenario_.day_length;
  ctx.solar_capacitance = cfg.solar_capacitance;
  ctx.vdd_capacitance = cfg.vdd_capacitance;
  ctx.solar_start_voltage = cfg.solar_start_voltage;
  ctx.trace = &trace;

  // Offline policies (the DP oracle) score the node analytically — the fleet
  // records the score in place of a transient.
  if (const std::optional<OfflineScore> score = policy.offline(ctx)) {
    result.cycles = score->cycles;
    result.jobs_submitted = score->jobs_submitted;
    result.jobs_completed = score->jobs_completed;
    result.jobs_missed = score->jobs_missed;
    result.deadline_hit_rate = score->deadline_hit_rate;
    result.harvested = score->harvested;
    result.delivered = score->delivered;
    result.halted = score->halted;
    result.energy_per_job =
        score->jobs_completed > 0
            ? score->delivered / score->jobs_completed
            : Joules(0.0);
    return result;
  }

  // --- One simulated day. ---------------------------------------------------
  const std::unique_ptr<PolicyController> controller = policy.make_controller(ctx);
  cfg.fast_path = policy.fast_path();
  SocSystem soc(cfg, std::make_unique<SwitchedCapRegulator>(), processor);
  const SimResult sim = soc.run(trace, *controller, scenario_.day_length);

  const PolicyJobStats jobs = controller->job_stats();
  result.cycles = sim.totals.cycles;
  result.brownouts = sim.totals.brownouts;
  result.timing_faults = sim.totals.timing_faults;
  result.jobs_submitted = jobs.submitted;
  result.jobs_completed = jobs.completed;
  result.jobs_missed = jobs.missed;
  const int adjudicated = result.jobs_completed + result.jobs_missed;
  result.deadline_hit_rate =
      adjudicated > 0
          ? static_cast<double>(result.jobs_completed) / adjudicated
          : 1.0;
  result.mppt_error = mppt_tracking_error(sim.waveform, model);
  result.harvested = sim.totals.harvested;
  result.delivered = sim.totals.delivered_to_processor;
  result.halted = sim.totals.halted_time;
  result.energy_per_job =
      result.jobs_completed > 0
          ? sim.totals.delivered_to_processor / result.jobs_completed
          : Joules(0.0);
  return result;
}

FleetReport FleetSimulator::run(const FleetOptions& opts) const {
  const IrradianceTrace* shared = shared_trace_.get();
  std::vector<NodeResult> results = sweep_indexed(
      static_cast<std::size_t>(scenario_.nodes),
      [&](std::size_t i) { return run_node(static_cast<int>(i), shared); },
      {.pool = opts.pool, .parallel = opts.parallel});
  return aggregate(scenario_, std::move(results));
}

}  // namespace hemp
