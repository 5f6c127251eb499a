// Pinned fleet summary hashes on small fixed scenarios.
//
// The determinism suites elsewhere compare runs against each other (serial
// vs parallel, scalar vs laned), so a change that moves every run the same
// way — e.g. a set-up solver that returns different bits — passes them.
// These pins compare against recorded values instead: any change to the
// bits a fleet produces, from trace generation through surface and table
// construction to the stepped loops, fails here.  Re-pin only for a change
// that is meant to move results, and say why where the change is recorded.
#include <gtest/gtest.h>

#include "common/audit.hpp"
#include "fleet/batch_kernel.hpp"
#include "fleet/fleet_sim.hpp"

namespace hemp {
namespace {

// Cloudy, per-node skies and a heterogeneous population (scale, capacitance,
// corner, temperature), small enough for a few hundred ms per run.
const char* kPinScenario =
    "name = hash_pin\n"
    "nodes = 8\n"
    "seed = 2018\n"
    "day_length_s = 0.02\n"
    "time_step_us = 10\n"
    "waveform_interval_us = 500\n"
    "trace = clouds\n"
    "shared_trace = false\n"
    "job_cycles = 5e5\n"
    "job_period_ms = 4\n"
    "job_deadline_ms = 2\n";

FleetScenario pin_scenario() { return FleetScenario::from_string(kPinScenario); }

// The values were recorded on x86-64 (SSE2 doubles, no FMA contraction) with
// glibc's libm.  A target that fuses multiply-adds rounds differently and
// needs its own pins.
#if defined(__x86_64__) && !defined(__FMA__)
constexpr bool kPinnedTarget = true;
#else
constexpr bool kPinnedTarget = false;
#endif

TEST(HashPin, FleetSimulatorGreedyMpp) {
  if (!kPinnedTarget) GTEST_SKIP() << "hash pins are recorded for x86-64 without FMA";
  // greedy_mpp runs each node on the fast_soc event engine, so this pins the
  // per-node controller tables and IV surfaces as well as the stepping.  An
  // audit build (HEMP_AUDIT=ON) defaults SocConfig::audit to true, which
  // deliberately routes every node through the dense tick loop instead
  // (tests/sim/fast_soc_test.cpp), so that build pins the dense loop's bits.
  FleetScenario s = pin_scenario();
  s.policy = "greedy_mpp";
  const FleetReport r = FleetSimulator(s).run({.parallel = false});
  EXPECT_EQ(r.summary_hash, audit_compiled_in() ? 0xff43b3ab06a4d4b4ULL
                                                : 0xc4a2df54fc392363ULL);
}

TEST(HashPin, FleetSimulatorDefaultMix) {
  if (!kPinnedTarget) GTEST_SKIP() << "hash pins are recorded for x86-64 without FMA";
  // The default policy mix runs on the dense reference tick loop.
  const FleetReport r = FleetSimulator(pin_scenario()).run({.parallel = false});
  EXPECT_EQ(r.summary_hash, 0x9d46467f37997c5dULL);
}

TEST(HashPin, BatchFleetKernel) {
  if (!kPinnedTarget) GTEST_SKIP() << "hash pins are recorded for x86-64 without FMA";
  FleetScenario s = pin_scenario();
  s.nodes = 32;
  const FleetReport r = BatchFleetKernel(s).run({.parallel = false});
  EXPECT_EQ(r.summary_hash, 0x54da0addaa98ab59ULL);
}

TEST(HashPin, BatchFleetKernelWarmSurfaces) {
  if (!kPinnedTarget) GTEST_SKIP() << "hash pins are recorded for x86-64 without FMA";
  // Another seed over the same pv-scale range builds the shared surfaces
  // first, so the pinned kernel below is built from the process-wide cache.
  FleetScenario s = pin_scenario();
  s.nodes = 32;
  FleetScenario other = s;
  other.seed = s.seed + 1;
  (void)BatchFleetKernel(other);
  const FleetReport r = BatchFleetKernel(s).run({.parallel = false});
  EXPECT_EQ(r.summary_hash, 0x54da0addaa98ab59ULL);
}

}  // namespace
}  // namespace hemp
