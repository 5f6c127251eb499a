// Fleet simulator: N heterogeneous battery-less nodes over one simulated day.
//
// Draws each node through the fleet front end (fleet/front_end.hpp) — PV
// size, storage capacitance, fab corner, junction temperature, sky, workload
// and policy, all from Rng(seed).fork(node) — runs it as one SocSystem
// transient (or scores it offline), and reduces the per-node results into a
// FleetReport.
//
// Determinism contract: every stochastic choice for node i depends only on
// (scenario.seed, i), each node's transient is single-threaded IEEE
// arithmetic, and results land in per-node slots, so the parallel run is
// bit-identical to the serial run and the same seed yields the same summary
// hash on every rerun.
#pragma once

#include <optional>
#include <utility>

#include "fleet/front_end.hpp"
#include "fleet/report.hpp"
#include "fleet/scenario.hpp"

namespace hemp {

/// The pool to shard nodes onto (nullptr: ThreadPool::shared()) and whether
/// to use it; the serial loop gives bit-identical results.
using FleetOptions = SweepOptions;

class FleetSimulator {
 public:
  /// Throws ModelError (listing the registered names) when scenario.policy
  /// names a policy the global registry does not know.
  explicit FleetSimulator(FleetScenario scenario)
      : front_(std::move(scenario)), shared_sky_(front_.shared_sky()) {}

  /// Run the whole fleet and aggregate.  Safe to call repeatedly; every run
  /// with the same scenario returns a bit-identical report.
  [[nodiscard]] FleetReport run(const FleetOptions& opts = {}) const;

  /// Draw node `index`'s identity (exposed for tests: sampling must depend
  /// only on (seed, index)).
  [[nodiscard]] NodeSample sample_node(int index) const { return front_.sample(index); }

  [[nodiscard]] const FleetScenario& scenario() const {
    return front_.scenario();
  }

 private:
  [[nodiscard]] NodeResult run_node(int index) const;

  FleetFrontEnd front_;
  /// Set when the fleet shares one sky.
  std::optional<IrradianceTrace> shared_sky_;
};

}  // namespace hemp
