// The fleet front end both fleet engines share: how a node is drawn from the
// scenario, how its outcome becomes a NodeResult, and how a fleet of nodes is
// run and reduced.  FleetSimulator and BatchFleetKernel differ only in how
// they step a node between the two.
//
// Determinism contract: node i's draw depends only on (scenario.seed, i), its
// result lands in its own slot, and the reduction is index-ordered, so a
// fleet run on the pool is bit-identical to the serial loop.
#pragma once

#include <cmath>
#include <functional>
#include <optional>
#include <vector>

#include "fleet/report.hpp"
#include "fleet/scenario.hpp"
#include "harvester/light_environment.hpp"
#include "harvester/pv_cell.hpp"
#include "policy/energy_policy.hpp"
#include "processor/processor.hpp"
#include "sim/sweep.hpp"

namespace hemp {

/// Everything one node runs with, drawn from its stream Rng(seed).fork(i).
struct NodeDraw {
  NodeSample sample;
  PvCellParams pv;      ///< scaled_pv_params(sample.pv_scale)
  Processor processor;  ///< make_test_chip_at(sample.conditions)
  /// The node's own sky, drawn on its stream after the sample; empty when
  /// the fleet shares one (FleetFrontEnd::shared_sky).
  std::optional<IrradianceTrace> sky;
  PolicyWorkload workload;
  const EnergyPolicy* policy = nullptr;
};

/// A validated scenario with its node policies resolved.
class FleetFrontEnd {
 public:
  /// Throws ModelError (listing the registered names) when scenario.policy
  /// names a policy the global registry does not know.
  explicit FleetFrontEnd(FleetScenario scenario);

  [[nodiscard]] const FleetScenario& scenario() const { return scenario_; }

  /// The sky every node sees when the scenario shares one, drawn afresh
  /// from Rng(seed).fork(~0) on each call; none when each node draws its own.
  [[nodiscard]] std::optional<IrradianceTrace> shared_sky() const;

  /// Node `index`'s inputs: its sample, cell, processor, own sky, workload
  /// and policy.
  [[nodiscard]] NodeDraw draw(int index) const;

  /// Node `index`'s identity alone (the first draws of its stream).
  [[nodiscard]] NodeSample sample(int index) const;

  /// The periodic job workload of the node `s`.
  [[nodiscard]] PolicyWorkload workload(const NodeSample& s) const;

  /// The node's policy: the scenario's forced one, or the legacy mix's
  /// mpp_track / mep_hold chosen by the sampled min_energy.
  [[nodiscard]] const EnergyPolicy& policy(const NodeSample& s) const;

  /// Every policy a node of this fleet can run.
  [[nodiscard]] const std::vector<const EnergyPolicy*>& policies() const {
    return policies_;
  }

  /// Run `run_node` on every node index, serially or one node per pool
  /// task, and aggregate in index order.
  [[nodiscard]] FleetReport run(const std::function<NodeResult(int)>& run_node,
                                const SweepOptions& opts) const;

 private:
  FleetScenario scenario_;
  /// {forced} or {mpp_track, mep_hold}.
  std::vector<const EnergyPolicy*> policies_;
};

/// One node's record from its run totals, job accounting and MPPT error.
/// The deadline hit rate is jobs.hit_rate(); energy per job is the delivered
/// energy over the completed jobs, 0 when none completed.
[[nodiscard]] NodeResult node_result(const NodeSample& sample,
                                     const SimTotals& totals,
                                     const PolicyJobStats& jobs, double mppt_error);

/// The MPPT-error metric's irradiance bucket: g rounded to 0.01 sun, as its
/// index k = round(100 g) and level g = k / 100.
struct MpptBucket {
  double k, g;
};

/// The bucket of irradiance `g`; none when g or its bucket is below 0.05 sun.
[[nodiscard]] inline std::optional<MpptBucket> mppt_bucket(double g) {
  if (!(g >= 0.05)) return std::nullopt;
  const double k = std::round(g * 100.0);
  const double g_q = k / 100.0;
  if (g_q < 0.05) return std::nullopt;
  return MpptBucket{k, g_q};
}

}  // namespace hemp
