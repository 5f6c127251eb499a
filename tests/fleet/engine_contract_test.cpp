// Fleet-level contract of the event engines against the dense reference
// loop.
//
// AccuracyGate bounds what a run computes: the aggregate cycles and delivered
// energy of each event engine against the same nodes on the dense loop, on a
// fixed day1000 slice and on the 16-node smoke scenario.  The per-node modal
// suites (batch_kernel_test, fast_soc_test) allow 25-40% per node, so a
// change that shifts every node a little (a longer run cap, a coarser step
// rule) passes them; this gate does not.  Each bound is max(2x the gap
// recorded when the configuration was added, 1%).
//
// smoke.scn's 50 ms day is five sprints and their hand-offs, so a shift of a
// few reference ticks at a sprint's end can flip a node between finishing
// its last jobs and locking up (EXPERIMENTS.md, "Smoke nodes against the
// dense loop"); its configurations are the gate's view of the transients
// the day1000 slice averages away.
//
// WorkContract bounds what a run costs: the event steps per node-day of
// each step cause, on the first 16 day1000 nodes, within 10% of the counts
// recorded when the configuration was added.  The result contracts above
// cannot see a step rule that takes four times the steps it needs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <string>

#include "common/audit.hpp"
#include "common/solver_stats.hpp"
#include "fleet/batch_kernel.hpp"
#include "fleet/fleet_sim.hpp"
#include "policy/registry.hpp"

namespace hemp {
namespace {

/// The first 64 nodes of the fleet benchmark's day1000 scenario (seed 2018):
/// the same samples and skies as the full fleet's first nodes.
FleetScenario day1000_slice(const std::string& policy = "") {
  FleetScenario s = FleetScenario::from_file(HEMP_SCENARIO_DIR "/day1000.scn");
  s.nodes = 64;
  s.policy = policy;
  return s;
}

/// The CI smoke scenario (16 nodes, a 50 ms day, seed 7).
FleetScenario smoke(const std::string& policy) {
  FleetScenario s = FleetScenario::from_file(HEMP_SCENARIO_DIR "/smoke.scn");
  s.policy = policy;
  return s;
}

/// A test-only twin of the managed built-in `policy` that runs its nodes on
/// the dense loop: the same manager parameters, no fast path.
std::string dense_twin(const std::string& policy) {
  const std::string name = "dense_" + policy;
  PolicyRegistry& registry = PolicyRegistry::global();
  if (registry.find(name) == nullptr) {
    registry.add(make_managed_policy(name, policy + " on the dense loop (tests only)",
                                     *registry.at(policy).manager_params(), false));
  }
  return name;
}

/// Engine against dense loop, as a signed fraction.
double gap(double engine, double dense) { return engine / dense - 1.0; }

void expect_within(const FleetReport& engine, const FleetReport& dense,
                   double cycles_bound, double delivered_bound) {
  const double cycles = gap(engine.total_cycles, dense.total_cycles);
  const double delivered =
      gap(engine.total_delivered.value(), dense.total_delivered.value());
  std::printf("gap cycles %+.2f%% (bound %.2f%%), delivered %+.2f%% (bound %.2f%%)\n",
              100.0 * cycles, 100.0 * cycles_bound, 100.0 * delivered,
              100.0 * delivered_bound);
  EXPECT_LE(std::fabs(cycles), cycles_bound) << "aggregate cycles against the dense loop";
  EXPECT_LE(std::fabs(delivered), delivered_bound)
      << "aggregate delivered energy against the dense loop";
}

/// max(2x the recorded gap, 1%).
constexpr double bound(double recorded_gap) {
  return std::max(2.0 * (recorded_gap < 0.0 ? -recorded_gap : recorded_gap), 0.01);
}

void expect_batch_within(const std::string& policy, double cycles_gap,
                         double delivered_gap) {
  const FleetReport dense =
      FleetSimulator(day1000_slice(policy.empty() ? "" : dense_twin(policy)))
          .run({.parallel = true});
  const FleetReport batch = BatchFleetKernel(day1000_slice(policy)).run({.parallel = true});
  expect_within(batch, dense, bound(cycles_gap), bound(delivered_gap));
}

/// The fast engine on `scenario` (which runs `policy`) against its dense twin.
void expect_fast_within(FleetScenario (*scenario)(const std::string&),
                        const std::string& policy, double cycles_gap,
                        double delivered_gap) {
  const FleetReport dense = FleetSimulator(scenario(dense_twin(policy))).run({.parallel = true});
  const FleetReport fast = FleetSimulator(scenario(policy)).run({.parallel = true});
  expect_within(fast, dense, bound(cycles_gap), bound(delivered_gap));
}

// Each test passes the gaps (cycles, delivered) recorded on the commit that
// added its configuration, before the fast engine's step hint read the
// step's own clock.  In an audit build the fast-path policies route to the
// dense loop and read 0.

TEST(AccuracyGate, BatchDefaultMix) {
  expect_batch_within("", +0.0097, +0.0016);
}

TEST(AccuracyGate, BatchHystEager) {
  expect_batch_within("hyst_eager", -0.0068, -0.0108);
}

TEST(AccuracyGate, FastHystEager) {
  expect_fast_within(day1000_slice, "hyst_eager", +0.0119, +0.0110);
}

TEST(AccuracyGate, FastHystReluctant) {
  expect_fast_within(day1000_slice, "hyst_reluctant", +0.0048, -0.0020);
}

TEST(AccuracyGate, FastEdfSprint) {
  expect_fast_within(day1000_slice, "edf_sprint", +0.0122, +0.0055);
}

TEST(AccuracyGate, SmokeFastHystEager) {
  expect_fast_within(smoke, "hyst_eager", +0.0270, +0.0477);
}

TEST(AccuracyGate, SmokeFastHystReluctant) {
  expect_fast_within(smoke, "hyst_reluctant", +0.0251, +0.0452);
}

TEST(AccuracyGate, SmokeFastEdfSprint) {
  expect_fast_within(smoke, "edf_sprint", +0.0252, +0.0484);
}

// --- Work ------------------------------------------------------------------

/// Steps per node-day by cause, in StepCause order: deadline, trace knot,
/// watch bound, settle, dt cap.
using StepsByCause = std::array<double, solver_stats::kStepCauseCount>;

/// The first 16 day1000 nodes under `policy`.
FleetScenario work_slice(const std::string& policy) {
  FleetScenario s = day1000_slice(policy);
  s.nodes = 16;
  return s;
}

template <typename Engine>
void expect_work(const std::string& policy, const StepsByCause& recorded) {
  const FleetScenario scenario = work_slice(policy);
  const Engine engine(scenario);
  const solver_stats::StepSnapshot before = solver_stats::step_snapshot();
  (void)engine.run({.parallel = true});
  const solver_stats::StepSnapshot steps = solver_stats::step_delta_since(before);
  static constexpr const char* kCause[] = {"deadline", "trace_knot", "watch_bound",
                                           "settle", "dt_cap"};
  for (int c = 0; c < solver_stats::kStepCauseCount; ++c) {
    const double per_node_day =
        static_cast<double>(steps.by_cause[c]) / scenario.nodes;
    const double want = recorded[static_cast<std::size_t>(c)];
    std::printf("steps %-11s %9.2f per node-day (recorded %9.2f)\n", kCause[c],
                per_node_day, want);
    EXPECT_LE(std::fabs(per_node_day - want), 0.10 * want)
        << kCause[c] << " steps per node-day";
  }
}

/// The fast engine's managed nodes; an audit build routes them to the dense
/// loop, which takes no event steps.
void expect_fast_work(const std::string& policy, const StepsByCause& recorded) {
  if (audit_compiled_in()) GTEST_SKIP() << "an audit build runs these nodes densely";
  expect_work<FleetSimulator>(policy, recorded);
}

// Recorded when the managed controller's step hint became both event
// engines' step rule; the fast engine still takes a reference tick for
// every due deadline, so its managed configurations should fall when it
// stops.

TEST(WorkContract, FastHystEager) {
  expect_fast_work("hyst_eager", {6361.44, 43.12, 180.56, 329.31, 275.50});
}

TEST(WorkContract, FastHystReluctant) {
  expect_fast_work("hyst_reluctant", {7947.38, 41.50, 139.00, 368.81, 218.12});
}

TEST(WorkContract, FastEdfSprint) {
  expect_fast_work("edf_sprint", {6244.69, 43.00, 173.31, 335.25, 271.44});
}

TEST(WorkContract, FastGreedyMpp) {
  expect_fast_work("greedy_mpp", {1188.31, 50.31, 219.00, 149.00, 250.50});
}

TEST(WorkContract, BatchHystEager) {
  expect_work<BatchFleetKernel>("hyst_eager", {170.94, 50.50, 212.19, 358.56, 498.88});
}

TEST(WorkContract, BatchHystReluctant) {
  expect_work<BatchFleetKernel>("hyst_reluctant", {201.25, 50.19, 172.12, 352.88, 506.56});
}

}  // namespace
}  // namespace hemp
