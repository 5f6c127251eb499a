// Fleet simulator: N heterogeneous battery-less nodes over one simulated day.
//
// Instantiates `scenario.nodes` independent SocSystem transients — each with
// PV size, storage capacitance, fab corner, junction temperature, and
// controller policy sampled from the scenario distributions via
// Rng(seed).fork(node) — drives each over a shared or per-node irradiance
// trace, and reduces the per-node results into a FleetReport.
//
// Determinism contract: every stochastic choice for node i depends only on
// (scenario.seed, i), each node's transient is single-threaded IEEE
// arithmetic, and results land in per-node slots (sim/sweep.hpp), so the
// parallel run is bit-identical to the serial run and the same seed yields
// the same summary hash on every rerun.
#pragma once

#include <memory>

#include "common/thread_pool.hpp"
#include "fleet/report.hpp"
#include "fleet/scenario.hpp"
#include "harvester/light_environment.hpp"

namespace hemp {

class EnergyPolicy;

struct FleetOptions {
  /// Pool to shard nodes onto; nullptr uses ThreadPool::shared().
  ThreadPool* pool = nullptr;
  /// false runs the serial reference loop (bit-identical results).
  bool parallel = true;
};

class FleetSimulator {
 public:
  /// Throws ModelError (listing the registered names) when scenario.policy
  /// names a policy the global registry does not know.
  explicit FleetSimulator(FleetScenario scenario);

  /// Run the whole fleet and aggregate.  Safe to call repeatedly; every run
  /// with the same scenario returns a bit-identical report.
  [[nodiscard]] FleetReport run(const FleetOptions& opts = {}) const;

  /// Draw node `index`'s identity (exposed for tests: sampling must depend
  /// only on (seed, index)).
  [[nodiscard]] NodeSample sample_node(int index) const;

  [[nodiscard]] const FleetScenario& scenario() const { return scenario_; }

 private:
  [[nodiscard]] NodeResult run_node(int index,
                                    const IrradianceTrace* shared) const;

  FleetScenario scenario_;
  /// Set when the scenario shares one sky across the fleet (or replays CSV).
  std::shared_ptr<const IrradianceTrace> shared_trace_;
  /// Resolved scenario.policy — forces every node onto one policy.  nullptr
  /// keeps the legacy sampled mix (min_energy_fraction Bernoulli per node
  /// through the ported mpp_track / mep_hold policies).
  const EnergyPolicy* forced_policy_ = nullptr;
};

}  // namespace hemp
