#include "fleet/batch_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/solver_stats.hpp"
#include "common/thread_pool.hpp"
#include "fleet/fleet_sim.hpp"
#include "policy/registry.hpp"

namespace hemp {
namespace {

/// Smoke-scale scenario: small fleet, short compressed day.
FleetScenario quick_scenario() {
  FleetScenario s;
  s.name = "batch-test";
  s.nodes = 8;
  s.seed = 42;
  s.day_length = Seconds(0.02);
  s.time_step = Seconds(10e-6);
  s.waveform_interval = Seconds(200e-6);
  s.trace_kind = TraceKind::kConstant;
  s.constant_g = 0.9;
  s.job_cycles = 2e5;
  s.job_period = Seconds(5e-3);
  s.job_deadline = Seconds(2e-3);
  return s;
}

double rel_gap(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-12});
  return std::fabs(a - b) / scale;
}

/// Assert the batch kernel reproduces the reference FleetSimulator modally.
///
/// The kernel is an event-driven integrator over the same closed forms, not a
/// re-execution of the tick loop, so two regimes exist (see DESIGN.md):
///
///   * Converged nodes — the vast majority — track the reference within a few
///     percent on energy and within the slew-gate jitter on cycles (the MPP
///     tracker's dv gate samples a marginal quantity every control period;
///     tick-scale phase offsets flip some of those decisions, shifting ladder
///     cadence without changing qualitative behaviour).
///
///   * Bifurcated nodes sit on a knife edge of the reference's *draw-based*
///     light estimate: one ladder step of difference at a single reassess
///     instant decides between staying regulated and entering the low-light
///     bypass (which can latch for the rest of the day when nothing
///     discharges the node below the threshold-timer window).  No
///     re-discretized integrator can adjudicate these identically, so the
///     contract bounds their *count*, not their trajectories.
void expect_equivalent(const FleetScenario& scenario, double energy_tol,
                       double cycles_tol) {
  const FleetReport ref = FleetSimulator(scenario).run({.parallel = false});
  const BatchFleetKernel kernel(scenario);
  const FleetReport batch = kernel.run({.parallel = false});
  ASSERT_EQ(ref.node_results.size(), batch.node_results.size());
  int bifurcated = 0;
  double agg_harv_ref = 0.0, agg_harv_bat = 0.0;
  double agg_cyc_ref = 0.0, agg_cyc_bat = 0.0;
  for (std::size_t i = 0; i < ref.node_results.size(); ++i) {
    const NodeResult& r = ref.node_results[i];
    const NodeResult& b = batch.node_results[i];
    SCOPED_TRACE("node " + std::to_string(i) +
                 (r.sample.min_energy ? " (min-energy)" : " (max-perf)"));
    EXPECT_EQ(r.sample.pv_scale, b.sample.pv_scale);
    EXPECT_EQ(r.sample.min_energy, b.sample.min_energy);
    // Submission is a pure function of the job phase/period — always exact.
    EXPECT_EQ(r.jobs_submitted, b.jobs_submitted);
    if (rel_gap(r.cycles, b.cycles) > 0.5 ||
        std::abs(r.jobs_completed - b.jobs_completed) > 1) {
      ++bifurcated;  // modal disagreement: counted, not compared
      continue;
    }
    agg_harv_ref += r.harvested.value();
    agg_harv_bat += b.harvested.value();
    agg_cyc_ref += r.cycles;
    agg_cyc_bat += b.cycles;
    EXPECT_LT(rel_gap(r.harvested.value(), b.harvested.value()), energy_tol)
        << "harvested ref=" << r.harvested.value()
        << " batch=" << b.harvested.value();
    EXPECT_LT(rel_gap(r.delivered.value(), b.delivered.value()), cycles_tol)
        << "delivered ref=" << r.delivered.value()
        << " batch=" << b.delivered.value();
    EXPECT_LT(rel_gap(r.cycles, b.cycles), cycles_tol)
        << "cycles ref=" << r.cycles << " batch=" << b.cycles;
    EXPECT_LE(std::abs(r.jobs_completed - b.jobs_completed), 1);
  }
  // At most a quarter of the population may sit on a reference knife edge.
  EXPECT_LE(bifurcated,
            std::max(1, static_cast<int>(ref.node_results.size()) / 4));
  // Converged-population aggregates are tighter than any single node.
  EXPECT_LT(rel_gap(agg_harv_ref, agg_harv_bat), energy_tol)
      << "aggregate harvested ref=" << agg_harv_ref
      << " batch=" << agg_harv_bat;
  EXPECT_LT(rel_gap(agg_cyc_ref, agg_cyc_bat), cycles_tol)
      << "aggregate cycles ref=" << agg_cyc_ref << " batch=" << agg_cyc_bat;
}

TEST(BatchFleetKernel, SameSeedBitIdenticalReport) {
  const BatchFleetKernel kernel(quick_scenario());
  const FleetReport a = kernel.run();
  const FleetReport b = kernel.run();
  EXPECT_EQ(a.summary_hash, b.summary_hash);
}

TEST(BatchFleetKernel, ParallelBitIdenticalToSerial) {
  const BatchFleetKernel kernel(quick_scenario());
  const FleetReport serial = kernel.run({.parallel = false});
  const FleetReport parallel = kernel.run({.parallel = true});
  const FleetReport small_blocks =
      kernel.run({.parallel = true, .block_size = 1});
  EXPECT_EQ(serial.summary_hash, parallel.summary_hash);
  EXPECT_EQ(serial.summary_hash, small_blocks.summary_hash);
  EXPECT_EQ(serial.total_cycles, parallel.total_cycles);
}

TEST(BatchFleetKernel, CloudsParallelBitIdenticalAcrossBlockSizes) {
  // Per-node cloudy skies step each node at its own cadence; however the 19
  // nodes are cut into blocks (19 of one, six of three plus one of one, or
  // one of sixteen plus one of three), every node must see exactly its
  // serial step sequence.
  FleetScenario s = quick_scenario();
  s.nodes = 19;
  s.trace_kind = TraceKind::kClouds;
  const BatchFleetKernel kernel(s);
  const FleetReport serial = kernel.run({.parallel = false});
  for (const int block : {1, 3, 16}) {
    const FleetReport par = kernel.run({.parallel = true, .block_size = block});
    EXPECT_EQ(serial.summary_hash, par.summary_hash) << "block " << block;
    ASSERT_EQ(serial.node_results.size(), par.node_results.size());
    for (std::size_t i = 0; i < serial.node_results.size(); ++i) {
      EXPECT_EQ(serial.node_results[i].cycles, par.node_results[i].cycles)
          << "block " << block << " node " << i;
      EXPECT_EQ(serial.node_results[i].harvested.value(),
                par.node_results[i].harvested.value())
          << "block " << block << " node " << i;
      EXPECT_EQ(serial.node_results[i].delivered.value(),
                par.node_results[i].delivered.value())
          << "block " << block << " node " << i;
    }
  }
}

// --- Constructor determinism: the work units may run in any order on any
// number of workers, and the kernel must come out bit-identical. ------------

/// A batch lane that never takes the low-light bypass (no built-in policy
/// disables it), registered once for the constructor tests.
class NoBypassPolicy final : public EnergyPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "test_no_bypass"; }
  [[nodiscard]] std::string description() const override {
    return "mpp_track without the low-light bypass (tests only)";
  }
  [[nodiscard]] std::optional<BatchPolicySpec> batch_spec() const override {
    return BatchPolicySpec{false, false, 0.9, 1.2};
  }
  [[nodiscard]] std::unique_ptr<PolicyController> make_controller(
      const PolicyContext& /*ctx*/) const override {
    throw ModelError("test_no_bypass runs on the batch kernel only");
  }
};

const std::string& no_bypass_policy() {
  static const std::string name = [] {
    auto policy = std::make_unique<NoBypassPolicy>();
    std::string n = policy->name();
    PolicyRegistry::global().add(std::move(policy));
    return n;
  }();
  return name;
}

/// 41 nodes: two full constructor blocks of 16 plus a ragged one.
FleetScenario ctor_scenario() {
  FleetScenario s = quick_scenario();
  s.nodes = 41;
  s.seed = 7;
  return s;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_node(const NodeResult& a, const NodeResult& b) {
  EXPECT_EQ(a.sample.index, b.sample.index);
  EXPECT_TRUE(same_bits(a.sample.pv_scale, b.sample.pv_scale));
  EXPECT_TRUE(same_bits(a.sample.solar_capacitance.value(),
                        b.sample.solar_capacitance.value()));
  EXPECT_EQ(a.sample.conditions.corner, b.sample.conditions.corner);
  EXPECT_TRUE(same_bits(a.sample.conditions.temperature_c,
                        b.sample.conditions.temperature_c));
  EXPECT_EQ(a.sample.min_energy, b.sample.min_energy);
  EXPECT_TRUE(same_bits(a.sample.job_phase.value(), b.sample.job_phase.value()));
  EXPECT_TRUE(same_bits(a.cycles, b.cycles));
  EXPECT_EQ(a.brownouts, b.brownouts);
  EXPECT_EQ(a.timing_faults, b.timing_faults);
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.jobs_missed, b.jobs_missed);
  EXPECT_TRUE(same_bits(a.deadline_hit_rate, b.deadline_hit_rate));
  EXPECT_TRUE(same_bits(a.mppt_error, b.mppt_error));
  EXPECT_TRUE(same_bits(a.harvested.value(), b.harvested.value()));
  EXPECT_TRUE(same_bits(a.delivered.value(), b.delivered.value()));
  EXPECT_TRUE(same_bits(a.halted.value(), b.halted.value()));
  EXPECT_TRUE(same_bits(a.energy_per_job.value(), b.energy_per_job.value()));
}

/// Build `s` serially, on the shared pool and on a private 3-worker pool;
/// every build must give the same hash and field-identical nodes.
void expect_ctor_deterministic(const FleetScenario& s) {
  ThreadPool pool(3);
  const BatchFleetKernel serial(s, {.parallel = false});
  const BatchFleetKernel shared(s);
  const BatchFleetKernel privately(s, {.pool = &pool});
  const FleetReport want = serial.run({.parallel = false});
  EXPECT_EQ(want.summary_hash, shared.run({.parallel = false}).summary_hash);
  EXPECT_EQ(want.summary_hash, privately.run({.parallel = false}).summary_hash);
  for (int i = 0; i < s.nodes; ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    const NodeResult a = serial.run_node(i);
    expect_same_node(a, shared.run_node(i));
    expect_same_node(a, privately.run_node(i));
  }
}

TEST(BatchFleetKernel, ParallelCtorBitIdenticalPerNodeClouds) {
  FleetScenario s = ctor_scenario();
  s.trace_kind = TraceKind::kClouds;
  s.shared_trace = false;
  expect_ctor_deterministic(s);
}

TEST(BatchFleetKernel, ParallelCtorBitIdenticalSharedIndoor) {
  FleetScenario s = ctor_scenario();
  s.trace_kind = TraceKind::kIndoor;
  s.shared_trace = true;
  s.job_cycles = 0.0;
  expect_ctor_deterministic(s);
}

TEST(BatchFleetKernel, ParallelCtorBitIdenticalForcedNoBypass) {
  FleetScenario s = ctor_scenario();
  s.trace_kind = TraceKind::kClouds;
  s.shared_trace = false;
  s.policy = no_bypass_policy();
  expect_ctor_deterministic(s);
}

TEST(BatchFleetKernel, CtorInsidePoolWorkerCompletes) {
  // Kernels built inside a parallel sweep on the same pool: the constructor's
  // parallel_for runs inline on each worker (no nested deadlock).
  ThreadPool pool(2);
  FleetScenario s = ctor_scenario();
  s.nodes = 9;
  const std::uint64_t want =
      BatchFleetKernel(s, {.parallel = false}).run({.parallel = false}).summary_hash;
  std::vector<std::uint64_t> hashes(4);
  parallel_for(pool, hashes.size(), [&](std::size_t k) {
    const BatchFleetKernel kernel(s, {.pool = &pool});
    hashes[k] = kernel.run({.pool = &pool}).summary_hash;
  });
  for (const std::uint64_t h : hashes) EXPECT_EQ(h, want);
}

// --- The process-wide surface cache (DESIGN.md Sec. 6k).  Kernels built on
// one pv-scale range share one set of IV slices, MPP rows and crossover
// tables, so a warm build must give exactly the bits of a cold one.  The
// hashes were recorded from a build without the cache, on x86-64 without FMA
// (the same targets as tests/fleet/hash_pin_test.cpp).
#if defined(__x86_64__) && !defined(__FMA__)
constexpr bool kPinnedTarget = true;
#else
constexpr bool kPinnedTarget = false;
#endif

/// quick_scenario over the pv-scale range [lo, hi].
FleetScenario ranged_scenario(double lo, double hi) {
  FleetScenario s = quick_scenario();
  s.pv_scale_min = lo;
  s.pv_scale_max = hi;
  return s;
}

std::uint64_t build_hash(const FleetScenario& s, const BatchKernelOptions& opts = {}) {
  return BatchFleetKernel(s, opts).run({.parallel = false}).summary_hash;
}

// Two ranges sharing their lower end, so a key that dropped the upper end
// would alias them.
const FleetScenario kRangeA = ranged_scenario(0.5, 1.5);
const FleetScenario kRangeB = ranged_scenario(0.5, 1.25);
constexpr std::uint64_t kHashA = 0x65fcf6849b978ac0ULL;
constexpr std::uint64_t kHashB = 0xaae928ec500ff8e4ULL;

TEST(BatchFleetKernel, SurfaceCacheKeepsRangesApart) {
  if (!kPinnedTarget) GTEST_SKIP() << "hashes are recorded for x86-64 without FMA";
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    EXPECT_EQ(build_hash(kRangeA), kHashA);
    EXPECT_EQ(build_hash(kRangeB), kHashB);
  }
}

TEST(BatchFleetKernel, SurfaceCacheConcurrentBuildsMatchSerial) {
  if (!kPinnedTarget) GTEST_SKIP() << "hashes are recorded for x86-64 without FMA";
  // Each constructor runs inline on a worker of this pool, so up to three
  // builds of one key race on a cold cache.
  ThreadPool pool(3);
  std::vector<std::uint64_t> hashes(8);
  parallel_for(pool, hashes.size(), [&](std::size_t k) {
    hashes[k] = build_hash(k % 2 == 0 ? kRangeA : kRangeB, {.pool = &pool});
  });
  for (std::size_t k = 0; k < hashes.size(); ++k) {
    EXPECT_EQ(hashes[k], k % 2 == 0 ? kHashA : kHashB) << "build " << k;
  }
}

TEST(BatchFleetKernel, SurfaceCacheEvictionRebuildsSameBits) {
  if (!kPinnedTarget) GTEST_SKIP() << "hashes are recorded for x86-64 without FMA";
  // Six distinct lower ends: more ranges than the cache holds, so the first
  // range is evicted before it is built again.
  constexpr std::uint64_t kHashFirst = 0x5c8faeba5841cf9fULL;
  EXPECT_EQ(build_hash(ranged_scenario(0.40, 1.45)), kHashFirst);
  for (int k = 1; k < 6; ++k) (void)build_hash(ranged_scenario(0.40 + 0.02 * k, 1.45));
  EXPECT_EQ(build_hash(ranged_scenario(0.40, 1.45)), kHashFirst);
}

TEST(BatchFleetKernel, RunNodeMatchesRun) {
  const BatchFleetKernel kernel(quick_scenario());
  const FleetReport report = kernel.run();
  const NodeResult lone = kernel.run_node(3);
  EXPECT_EQ(report.node_results[3].cycles, lone.cycles);
  EXPECT_EQ(report.node_results[3].harvested.value(), lone.harvested.value());
}

TEST(BatchFleetKernel, NoExactSolvesDuringRun) {
  const BatchFleetKernel kernel(quick_scenario());
  const auto before = solver_stats::snapshot();
  (void)kernel.run({.check_no_exact_solves = true});
  const auto delta = solver_stats::delta_since(before);
  EXPECT_EQ(delta.mpp_solves, 0u);
  EXPECT_EQ(delta.regulated_solves, 0u);
}

TEST(BatchFleetKernel, EquivalentToReferenceConstantLight) {
  expect_equivalent(quick_scenario(), 0.12, 0.25);
}

TEST(BatchFleetKernel, EquivalentToReferenceDiurnal) {
  FleetScenario s = quick_scenario();
  s.trace_kind = TraceKind::kDiurnal;
  s.shared_trace = false;
  expect_equivalent(s, 0.12, 0.25);
}

TEST(BatchFleetKernel, EquivalentToReferenceClouds) {
  FleetScenario s = quick_scenario();
  s.trace_kind = TraceKind::kClouds;
  s.shared_trace = true;
  expect_equivalent(s, 0.12, 0.25);
}

TEST(BatchFleetKernel, EquivalentToReferenceIndoorSteps) {
  // The indoor generator emits a hard step function: the strongest exercise
  // of breakpoint handling in the event stepper.
  FleetScenario s = quick_scenario();
  s.trace_kind = TraceKind::kIndoor;
  s.shared_trace = false;
  s.job_cycles = 0.0;  // indoor light cannot sustain the default sprint load
  expect_equivalent(s, 0.15, 0.30);
}

TEST(BatchFleetKernel, EquivalentAcrossCornerExtremes) {
  // Force corner-heavy fleets: all-SS then all-FF populations.
  for (int corner = 0; corner < 2; ++corner) {
    FleetScenario s = quick_scenario();
    s.corner_weights = corner == 0 ? std::array<double, 3>{1.0, 0.0, 0.0}
                                   : std::array<double, 3>{0.0, 0.0, 1.0};
    SCOPED_TRACE(corner == 0 ? "all slow-slow" : "all fast-fast");
    // The slow-slow corner runs closest to the f_max clamp, so ladder-cadence
    // jitter moves a larger share of each node's cycles.
    expect_equivalent(s, 0.12, 0.40);
  }
}

TEST(BatchFleetKernel, EquivalentAcrossPolicyExtremes) {
  // All max-performance trackers, then all min-energy (MEP) nodes.
  for (double fraction : {0.0, 1.0}) {
    FleetScenario s = quick_scenario();
    s.min_energy_fraction = fraction;
    SCOPED_TRACE("min_energy_fraction=" + std::to_string(fraction));
    expect_equivalent(s, 0.12, 0.25);
  }
}

TEST(BatchFleetKernel, StepTraceNeverSkipsComparatorCrossing) {
  // Indoor duty-cycled light switches between bright and dark instantly; the
  // solar node repeatedly charges through the comparator bank and collapses
  // back.  Every recorded edge sequence must strictly alternate per
  // comparator — a skipped crossing would produce two same-direction edges.
  FleetScenario s = quick_scenario();
  s.trace_kind = TraceKind::kIndoor;
  s.shared_trace = false;
  s.job_cycles = 0.0;
  s.nodes = 6;
  const BatchFleetKernel kernel(s);
  int total_events = 0;
  for (int node = 0; node < s.nodes; ++node) {
    std::vector<BatchComparatorEvent> events;
    (void)kernel.run_node_traced(node, events);
    total_events += static_cast<int>(events.size());
    std::map<int, bool> last_rising;
    Seconds last_time{-1.0};
    for (const BatchComparatorEvent& e : events) {
      EXPECT_GE(e.time.value(), last_time.value());
      last_time = e.time;
      const auto it = last_rising.find(e.comparator);
      if (it != last_rising.end()) {
        EXPECT_NE(it->second, e.rising)
            << "comparator " << e.comparator << " emitted two "
            << (e.rising ? "rising" : "falling") << " edges in a row at t="
            << e.time.value();
      }
      last_rising[e.comparator] = e.rising;
    }
  }
  EXPECT_GT(total_events, 0);
}

TEST(BatchFleetKernel, TracedRunMatchesUntraced) {
  const BatchFleetKernel kernel(quick_scenario());
  std::vector<BatchComparatorEvent> events;
  const NodeResult traced = kernel.run_node_traced(1, events);
  const NodeResult plain = kernel.run_node(1);
  // Tracing adds comparator watch levels, which only tightens steps; the
  // physics must land on (nearly) the same totals.
  EXPECT_LT(rel_gap(traced.harvested.value(), plain.harvested.value()), 1e-3);
  EXPECT_LT(rel_gap(traced.cycles, plain.cycles), 1e-3);
}

}  // namespace
}  // namespace hemp
