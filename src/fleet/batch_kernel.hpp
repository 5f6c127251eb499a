// Batched fleet kernel: event-driven transient integration over a node
// population (the perf successor to the per-node SocSystem reference loop).
//
// The reference path simulates each node with a fixed 2-10 us tick; a
// compressed day is ~50k ticks per node and the fleet engine tops out at
// O(100) nodes/s.  This kernel restructures the hot path two ways:
//
//   * Structure-of-arrays parameter plane: every node identity (PV scale,
//     storage, corner-resolved processor constants, policy) is drawn once in
//     the constructor, through the fleet front end FleetSimulator draws
//     with too (fleet/front_end.hpp), into contiguous arrays, and the shared
//     model evaluations — the (pv_scale, irradiance) MPP surface and the
//     bypass-crossover table — are precomputed bilinear grids.  Nothing in
//     the stepped loop calls an exact Brent/grid solver (asserted via
//     common/solver_stats.hpp).
//
//   * Event-driven stepping: instead of a fixed tick, each node jumps to the
//     earliest of its next controller deadline, irradiance-trace breakpoint,
//     or predicted comparator/watch-level crossing, with an analytic RC bound
//     dt <= C * dist_to_nearest_watch / i_max guaranteeing no crossing can
//     occur strictly inside a step (see DESIGN.md).  Typical days integrate
//     in a few hundred steps instead of ~50k ticks.
//
// Each node runs the core's own controller, ManagedPolicyController
// (EnergyManager + MppTrackingController), on a flat plant: the
// ControlPlant whose physics answers come from the shared surfaces, and is
// stepped by that controller's step_hint, the rule the single-node fast path
// reads too.  What stays the kernel's own is how it applies a deadline that
// has already passed: it ignores it, where the fast path takes a reference
// tick (DESIGN.md Sec. 6m).
//
// Equivalence: the kernel reproduces the reference FleetSimulator aggregates
// within tolerance (see tests/fleet/batch_kernel_test.cpp) but is not
// bit-identical to it — the determinism contract is internal: the batch
// summary_hash is bit-stable across serial/parallel runs and shard order.
#pragma once

#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "fleet/report.hpp"
#include "fleet/scenario.hpp"
#include "storage/comparator.hpp"

namespace hemp {

class EnergyPolicy;

struct BatchKernelOptions {
  /// Pool to shard nodes (and the constructor's work units) onto; nullptr
  /// uses ThreadPool::shared().
  ThreadPool* pool = nullptr;
  /// false runs the serial loop; true runs one node per pool task (results
  /// are bit-identical either way).
  bool parallel = true;
  /// Ignored.  The SIMD lane driver it selected measured slower than the
  /// scalar loop and was deleted (DESIGN.md Sec. 6h); the field stays only
  /// because the fleet benchmark's harness still names it, and goes with the
  /// next change to that benchmark.
  bool simd_lanes = true;
};

/// Event-driven batch simulator for a whole FleetScenario.
///
/// Construction precomputes the shared surfaces (exact solves are allowed
/// and expected here); run() and run_node() never fall back to them.
class BatchFleetKernel {
 public:
  /// Builds the surfaces, crossover tables and per-node state as independent
  /// work units on `opts.pool` (only `pool` and `parallel` are read).  The
  /// kernel is bit-identical however it was built; `{.parallel = false}`
  /// builds it on the calling thread alone.
  explicit BatchFleetKernel(FleetScenario scenario,
                            const BatchKernelOptions& opts = {});
  ~BatchFleetKernel();

  /// The lane rule: `policy` exposes EnergyManager params with a FIFO job
  /// queue and a 48-step DVFS ladder.  A forced scenario policy must pass it.
  [[nodiscard]] static bool runs(const EnergyPolicy& policy);

  BatchFleetKernel(const BatchFleetKernel&) = delete;
  BatchFleetKernel& operator=(const BatchFleetKernel&) = delete;

  /// Simulate every node and aggregate.  Deterministic: serial and parallel
  /// runs return bit-identical reports (same summary_hash).
  [[nodiscard]] FleetReport run(const BatchKernelOptions& opts = {}) const;

  /// Simulate a single node (pure function of the scenario and index).
  [[nodiscard]] NodeResult run_node(int index) const;

  /// Simulate a single node while recording every edge of SocConfig's
  /// solar-node ComparatorBank (the reference SocSystem's bank, fed at each
  /// step boundary), for the no-skipped-crossing equivalence tests.  The
  /// bank's levels bound the steps, so a traced run can step finer than
  /// run_node.
  [[nodiscard]] NodeResult run_node_traced(
      int index, std::vector<ComparatorEvent>& events) const;

  [[nodiscard]] const FleetScenario& scenario() const;

  /// Opaque precomputed state (defined in batch_kernel.cpp; public only so
  /// the translation-unit-local node runner can name the type).
  struct Shared;

 private:
  std::shared_ptr<const Shared> shared_;
};

}  // namespace hemp
