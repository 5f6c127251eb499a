#include "fleet/fleet_sim.hpp"

#include <cmath>
#include <memory>

#include "regulator/switched_cap.hpp"
#include "sim/soc_system.hpp"

namespace hemp {

namespace {

/// Mean relative MPP-voltage error over the waveform samples where the node
/// was tracking under the regulator with a running clock.  Irradiance is
/// bucketed (mppt_bucket) before the MPP solve so a day-long record costs at
/// most ~100 solves (served by SystemModel's cache thereafter).
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
    if (frequency[i] <= 0.0) continue;
    const std::optional<MpptBucket> bucket = mppt_bucket(irradiance[i]);
    if (!bucket) continue;
    const double v_mpp = model.mpp(bucket->g).voltage.value();
    if (v_mpp <= 0.0) continue;
    total += std::abs(v_solar[i] - v_mpp) / v_mpp;
    ++samples;
  }
  return samples > 0 ? total / static_cast<double>(samples) : 0.0;
}

}  // namespace

NodeResult FleetSimulator::run_node(int index) const {
  const FleetScenario& sc = front_.scenario();
  const NodeDraw node = front_.draw(index);
  const IrradianceTrace& trace = node.sky ? *node.sky : *shared_sky_;

  SocConfig cfg;
  cfg.pv = node.pv;
  cfg.solar_capacitance = node.sample.solar_capacitance;
  cfg.vdd_capacitance = sc.vdd_cap;
  cfg.time_step = sc.time_step;
  cfg.waveform_interval = sc.waveform_interval;
  cfg.trace_coarsen_eps = sc.trace_coarsen_eps;

  const PvCell cell(cfg.pv);
  const SwitchedCapRegulator model_regulator;
  const SystemModel model(cell, model_regulator, node.processor);

  PolicyContext ctx;
  ctx.model = &model;
  ctx.workload = node.workload;
  ctx.day_length = sc.day_length;
  ctx.solar_capacitance = cfg.solar_capacitance;
  ctx.vdd_capacitance = cfg.vdd_capacitance;
  ctx.solar_start_voltage = cfg.solar_start_voltage;
  ctx.trace = &trace;

  // Offline policies (the DP oracle) score the node analytically — the fleet
  // records the score in place of a transient.
  const EnergyPolicy& policy = *node.policy;
  if (const std::optional<OfflineScore> score = policy.offline(ctx)) {
    return node_result(node.sample, score->totals, score->jobs, 0.0);
  }

  // --- One simulated day. ---------------------------------------------------
  const std::unique_ptr<PolicyController> controller = policy.make_controller(ctx);
  cfg.fast_path = policy.fast_path();
  SocSystem soc(cfg, std::make_unique<SwitchedCapRegulator>(), node.processor);
  const SimResult sim = soc.run(trace, *controller, sc.day_length);
  return node_result(node.sample, sim.totals, controller->job_stats(),
                     mppt_tracking_error(sim.waveform, model));
}

FleetReport FleetSimulator::run(const FleetOptions& opts) const {
  return front_.run([this](int i) { return run_node(i); }, opts);
}

}  // namespace hemp
