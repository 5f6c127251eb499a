// Process-wide counters for the exact (iterative) model solvers.
//
// The fleet engines answer their per-step model questions from precomputed
// surfaces (sim/flat_model: IvSurface, MppSurface).  Hot loops — above all
// the batch fleet kernel — must never fall back to the exact solvers: one
// stray call per node per step erases the surface speedup.  These counters
// make that property testable: bracket a run with `snapshot()` and assert
// the deltas are zero.
//
// The counters are relaxed atomics — they order nothing, they only count —
// so the instrumentation costs one uncontended atomic increment per exact
// solve, which is noise next to the solve itself.
#pragma once

#include <atomic>
#include <cstdint>

namespace hemp::solver_stats {

/// Counter of exact MPP solves (iv_curve find_mpp grid+refine search).
inline std::atomic<std::uint64_t>& exact_mpp_solves() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

/// Counter of exact regulated-performance solves (PerformanceOptimizer's
/// surplus root-finding against the full model).
inline std::atomic<std::uint64_t>& exact_regulated_solves() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

/// A point-in-time reading of both counters.
struct Snapshot {
  std::uint64_t mpp_solves = 0;
  std::uint64_t regulated_solves = 0;

  [[nodiscard]] std::uint64_t total() const {
    return mpp_solves + regulated_solves;
  }
};

inline Snapshot snapshot() {
  return {exact_mpp_solves().load(std::memory_order_relaxed),
          exact_regulated_solves().load(std::memory_order_relaxed)};
}

/// Solves performed since `before` was taken.
inline Snapshot delta_since(const Snapshot& before) {
  const Snapshot now = snapshot();
  return {now.mpp_solves - before.mpp_solves,
          now.regulated_solves - before.regulated_solves};
}

inline void count_exact_mpp_solve() {
  exact_mpp_solves().fetch_add(1, std::memory_order_relaxed);
}

inline void count_exact_regulated_solve() {
  exact_regulated_solves().fetch_add(1, std::memory_order_relaxed);
}

/// Counter of IV-surface cells solved (flat::IvSurface: one warm-started
/// Newton solve per cell), counted once per solved row block.  Surfaces are
/// set-up work, so this is not an exact solve; it tracks how much of each
/// surface a run solves — all of it for the batch kernel's eager builds,
/// only the touched blocks for the fast path's first-touch surfaces.
inline std::atomic<std::uint64_t>& iv_cells_solved() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

inline void count_iv_cells(std::uint64_t n) {
  iv_cells_solved().fetch_add(n, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Step accounting for the event-driven engines (batch kernel, fast path).
//
// Per-step cost in those engines is already lean — bilinear surface reads
// only — so throughput is governed by step *count*.  Each engine classifies
// every step it takes by the constraint that bound its length, accumulates
// the counts in per-node locals, and flushes them here once per node run, so
// the stepped loop itself pays nothing.  fleet_bench surfaces the counts as
// `steps_per_node_day` in BENCH_perf.json and bench/baseline.json bands a
// ceiling on it — the step-count floor is a tracked metric, not folklore.
// ---------------------------------------------------------------------------

/// Which constraint decided a step's length.
enum class StepCause : int {
  kDeadline = 0,   ///< timed controller event (control/reassess cadence, job
                   ///< submit, sprint phase, waveform sample) or day end
  kTraceKnot = 1,  ///< irradiance-trace knot boundary
  kWatchBound = 2,  ///< analytic watch-level bound or bypass rail-swing cap
  kSettle = 3,      ///< regulated-rail settle episode endpoint
  kDtCap = 4,       ///< step ceiling (flat::kRunDtCap running, kDtMax gated)
};

inline constexpr int kStepCauseCount = 5;

inline std::atomic<std::uint64_t>& step_counter(StepCause cause) {
  static std::atomic<std::uint64_t> counts[kStepCauseCount]{};
  return counts[static_cast<int>(cause)];
}

/// A point-in-time reading of the per-cause step counters.
struct StepSnapshot {
  std::uint64_t by_cause[kStepCauseCount] = {};

  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t c : by_cause) sum += c;
    return sum;
  }

  [[nodiscard]] std::uint64_t deadline() const {
    return by_cause[static_cast<int>(StepCause::kDeadline)];
  }
  [[nodiscard]] std::uint64_t trace_knot() const {
    return by_cause[static_cast<int>(StepCause::kTraceKnot)];
  }
  [[nodiscard]] std::uint64_t watch_bound() const {
    return by_cause[static_cast<int>(StepCause::kWatchBound)];
  }
  [[nodiscard]] std::uint64_t settle() const {
    return by_cause[static_cast<int>(StepCause::kSettle)];
  }
  [[nodiscard]] std::uint64_t dt_cap() const {
    return by_cause[static_cast<int>(StepCause::kDtCap)];
  }
};

inline StepSnapshot step_snapshot() {
  StepSnapshot s;
  for (int i = 0; i < kStepCauseCount; ++i) {
    s.by_cause[i] =
        step_counter(static_cast<StepCause>(i)).load(std::memory_order_relaxed);
  }
  return s;
}

/// Steps taken since `before` was read.
inline StepSnapshot step_delta_since(const StepSnapshot& before) {
  const StepSnapshot now = step_snapshot();
  StepSnapshot d;
  for (int i = 0; i < kStepCauseCount; ++i) {
    d.by_cause[i] = now.by_cause[i] - before.by_cause[i];
  }
  return d;
}

/// Flush one node run's locally accumulated step counts (one atomic add per
/// cause per node, invisible next to the run itself).
inline void count_steps(StepCause cause, std::uint64_t n) {
  if (n > 0) step_counter(cause).fetch_add(n, std::memory_order_relaxed);
}

}  // namespace hemp::solver_stats
