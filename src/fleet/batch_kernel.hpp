// Batched fleet kernel: event-driven transient integration over a node
// population (the perf successor to the per-node SocSystem reference loop).
//
// The reference path simulates each node with a fixed 2-10 us tick; a
// compressed day is ~50k ticks per node and the fleet engine tops out at
// O(100) nodes/s.  This kernel restructures the hot path two ways:
//
//   * Structure-of-arrays parameter plane: every sampled node identity
//     (PV scale, storage, corner-resolved processor constants, policy) is
//     drawn once in the constructor into contiguous arrays, and the shared
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
// Equivalence: the kernel reproduces the reference FleetSimulator aggregates
// within tolerance (see tests/fleet/batch_kernel_test.cpp) but is not
// bit-identical to it — the determinism contract is internal: the batch
// summary_hash is bit-stable across serial/parallel runs and shard order.
#pragma once

#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "fleet/report.hpp"
#include "fleet/scenario.hpp"

namespace hemp {

struct BatchKernelOptions {
  /// Pool to shard nodes (and the constructor's work units) onto; nullptr
  /// uses ThreadPool::shared().
  ThreadPool* pool = nullptr;
  /// false runs the serial loop (results are bit-identical either way).
  bool parallel = true;
  /// Nodes per work item when sharding onto the pool.
  int block_size = 16;
  /// Assert that the run performed zero exact-solver calls (debug counter
  /// from common/solver_stats.hpp).  The check is process-wide, so callers
  /// running concurrent exact solves elsewhere should disable it.
  bool check_no_exact_solves = false;
  /// Ignored.  The SIMD lane driver it selected measured slower than the
  /// scalar loop and was deleted (DESIGN.md Sec. 6h); the field stays only
  /// because the fleet benchmark's harness still names it, and goes with the
  /// next change to that benchmark.
  bool simd_lanes = true;
};

/// One solar-node comparator edge recorded by the traced single-node runner.
struct BatchComparatorEvent {
  int comparator = 0;  ///< index into the scenario's descending threshold bank
  bool rising = false;
  Seconds time{0.0};
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

  BatchFleetKernel(const BatchFleetKernel&) = delete;
  BatchFleetKernel& operator=(const BatchFleetKernel&) = delete;

  /// Simulate every node and aggregate.  Deterministic: serial and parallel
  /// runs return bit-identical reports (same summary_hash).
  [[nodiscard]] FleetReport run(const BatchKernelOptions& opts = {}) const;

  /// Simulate a single node (pure function of the scenario and index).
  [[nodiscard]] NodeResult run_node(int index) const;

  /// Simulate a single node while recording every comparator-bank edge on
  /// the solar node (the reference SocSystem's observability), for the
  /// no-skipped-crossing equivalence tests.
  [[nodiscard]] NodeResult run_node_traced(
      int index, std::vector<BatchComparatorEvent>& events) const;

  [[nodiscard]] const FleetScenario& scenario() const;

  /// Opaque precomputed state (defined in batch_kernel.cpp; public only so
  /// the translation-unit-local node runner can name the type).
  struct Shared;

 private:
  std::shared_ptr<const Shared> shared_;
};

}  // namespace hemp
