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

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/audit.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/solver_stats.hpp"
#include "core/energy_manager.hpp"
#include "fleet/batch_kernel.hpp"
#include "fleet/fleet_sim.hpp"
#include "policy/controllers.hpp"
#include "policy/registry.hpp"
#include "processor/processor.hpp"
#include "regulator/switched_cap.hpp"
#include "sim/soc_system.hpp"
#include "trace/generators.hpp"

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
  // The parallel run puts the per-node surfaces, each solved on first touch,
  // on the shared pool (the debug-tsan preset runs this test).
  FleetScenario s = pin_scenario();
  s.policy = "greedy_mpp";
  const std::uint64_t pin =
      audit_compiled_in() ? 0xff43b3ab06a4d4b4ULL : 0xc4a2df54fc392363ULL;
  const FleetSimulator sim(s);
  EXPECT_EQ(sim.run({.parallel = false}).summary_hash, pin);
  EXPECT_EQ(sim.run({.parallel = true}).summary_hash, pin);
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

// The fleet benchmark's three workloads (perfbench/run.py), at the seed and
// sizes it pins: day1000's 1000-node batch fleet on per-node clouds and on
// one shared indoor sky, and 256 greedy_mpp nodes on the fast engine.  Each
// runs serial and on the pool, as the benchmark does.
FleetScenario day1000() {
  return FleetScenario::from_file(HEMP_SCENARIO_DIR "/day1000.scn");
}

void expect_day1000_batch_pin(const FleetScenario& s, std::uint64_t pin) {
  const BatchFleetKernel kernel(s);
  EXPECT_EQ(kernel.run({.parallel = false}).summary_hash, pin);
  EXPECT_EQ(kernel.run({.parallel = true}).summary_hash, pin);
}

TEST(HashPin, Day1000Batch) {
  if (!kPinnedTarget) GTEST_SKIP() << "hash pins are recorded for x86-64 without FMA";
  expect_day1000_batch_pin(day1000(), 0x19463ef1002bb785ULL);
}

TEST(HashPin, Day1000BatchSharedIndoorSky) {
  if (!kPinnedTarget) GTEST_SKIP() << "hash pins are recorded for x86-64 without FMA";
  FleetScenario s = day1000();
  s.trace_kind = TraceKind::kIndoor;
  s.shared_trace = true;
  expect_day1000_batch_pin(s, 0xc741d2f89ee4413eULL);
}

TEST(HashPin, Day1000GreedyMpp) {
  if (!kPinnedTarget) GTEST_SKIP() << "hash pins are recorded for x86-64 without FMA";
  // An audit build routes the nodes to the dense loop; the benchmark pins
  // the fast engine only.
  if (audit_compiled_in()) GTEST_SKIP() << "pinned for the fast engine only";
  FleetScenario s = day1000();
  s.nodes = 256;
  s.policy = "greedy_mpp";
  const FleetSimulator sim(s);
  EXPECT_EQ(sim.run({.parallel = false}).summary_hash, 0x0831d8ff2127f2afULL);
  EXPECT_EQ(sim.run({.parallel = true}).summary_hash, 0x0831d8ff2127f2afULL);
}

// ---------------------------------------------------------------------------
// Paths the summary hashes above do not reach: EnergyManager policies on the
// fleet's fast engine, the single-node fast engine under SocSystem::run, the
// batch kernel on a shared sky and with the bypass forced off, and the traced
// comparator bank.  Each pin is a fleet summary hash or folds every result
// bit of its path (totals, final state, the waveform record or the event
// list) into an FNV-1a hash.
// ---------------------------------------------------------------------------

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
};

std::uint64_t totals_hash(const SimResult& r) {
  Fnv f;
  f.add(r.totals.harvested.value());
  f.add(r.totals.delivered_to_processor.value());
  f.add(r.totals.regulator_loss.value());
  f.add(r.totals.bypass_loss.value());
  f.add(r.totals.cycles);
  f.add(static_cast<std::uint64_t>(r.totals.brownouts));
  f.add(static_cast<std::uint64_t>(r.totals.timing_faults));
  f.add(r.totals.halted_time.value());
  f.add(r.totals.simulated_time.value());
  f.add(r.final_state.v_solar.value());
  f.add(r.final_state.v_dd.value());
  return f.h;
}

std::uint64_t waveform_hash(const Waveform& w) {
  Fnv f;
  f.add(static_cast<std::uint64_t>(w.sample_count()));
  for (const double t : w.times()) f.add(t);
  for (const std::string& name : w.channels()) {
    for (const double v : w.series(name)) f.add(v);
  }
  return f.h;
}

/// Prints the observed value before comparing, so a deliberate re-pin can
/// read the new value off the test log.
void expect_pin(const char* what, std::uint64_t got, std::uint64_t want) {
  std::printf("pin %s = 0x%016llxULL\n", what,
              static_cast<unsigned long long>(got));
  EXPECT_EQ(got, want) << what;
}

// EnergyManager policies with a fast path.  The manager's MPP tracker reads
// its lookup table only on a retarget in its tracking state, which the job
// queue keeps short: on a longer day, with lighter job pressure and smaller
// solar storage than the pin scenario, each of these fleets reads the table
// inside its run and solves a knot there.  As for greedy_mpp, an audit build
// routes the nodes through the dense loop and pins that loop's bits.  The
// fast-engine pins were re-recorded when the step hint began reading the
// step's own clock (the sprint-end deadline had read the previous step's),
// and again when the manager's hint became the batch kernel's step rule.
void expect_managed_fleet_pin(const char* policy, std::uint64_t audit_pin,
                              std::uint64_t pin) {
  FleetScenario s = pin_scenario();
  s.day_length = Seconds(0.05);
  s.job_period = Seconds(10e-3);
  s.job_deadline = Seconds(5e-3);
  s.solar_cap_max = Farads(30e-6);
  s.policy = policy;
  const std::uint64_t want = audit_compiled_in() ? audit_pin : pin;
  const FleetSimulator sim(s);
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "serial");
    expect_pin(policy, sim.run({.parallel = parallel}).summary_hash, want);
  }
}

TEST(HashPin, FleetSimulatorHystEager) {
  if (!kPinnedTarget) GTEST_SKIP() << "hash pins are recorded for x86-64 without FMA";
  expect_managed_fleet_pin("hyst_eager", 0xd7911a8c38e8f547ULL, 0xe9ef8412ef764a53ULL);
}

TEST(HashPin, FleetSimulatorEdfSprint) {
  if (!kPinnedTarget) GTEST_SKIP() << "hash pins are recorded for x86-64 without FMA";
  expect_managed_fleet_pin("edf_sprint", 0x7c52d5ccadb8687cULL, 0x17b3efb9404db368ULL);
}

SocConfig fast_config() {
  SocConfig cfg;
  cfg.fast_path = true;
  cfg.audit = false;  // an audit build would route the run to the dense loop
  return cfg;
}

SimResult run_fast_fixed(const SocConfig& cfg, const IrradianceTrace& trace,
                         Seconds t_end, PowerPath path, Volts vdd, Hertz f) {
  SocSystem soc(cfg, std::make_unique<SwitchedCapRegulator>(),
                Processor::make_test_chip());
  FixedPointController ctrl(path, vdd, f);
  return soc.run(trace, ctrl, t_end);
}

TEST(HashPin, FastSocFixedPointRegulated) {
  if (!kPinnedTarget) GTEST_SKIP() << "hash pins are recorded for x86-64 without FMA";
  // A deep light step: settle episodes, knot stepping and the solar watch
  // bounds on the regulated path.
  const SimResult r = run_fast_fixed(
      fast_config(), IrradianceTrace::step(1.0, 0.1, Seconds(10e-3)),
      Seconds(30e-3), PowerPath::kRegulated, Volts(0.5), Hertz(300e6));
  expect_pin("fast regulated totals", totals_hash(r), 0x2fdb008f9c9e29c2ULL);
  expect_pin("fast regulated waveform", waveform_hash(r.waveform), 0x31a95062b0c02fc5ULL);
}

TEST(HashPin, FastSocFixedPointBypass) {
  if (!kPinnedTarget) GTEST_SKIP() << "hash pins are recorded for x86-64 without FMA";
  // The rail starts 0.8 V under the solar node, so the run opens with the
  // RC-merge replay before the merged bypass form takes over.
  SocConfig cfg = fast_config();
  cfg.vdd_start_voltage = Volts(0.4);
  const SimResult r = run_fast_fixed(
      cfg, IrradianceTrace::step(0.6, 0.2, Seconds(5e-3)), Seconds(10e-3),
      PowerPath::kBypass, Volts(0.5), Hertz(100e6));
  expect_pin("fast bypass totals", totals_hash(r), 0x8aff3faa98659eebULL);
  expect_pin("fast bypass waveform", waveform_hash(r.waveform), 0x17c19145571561baULL);
}

TEST(HashPin, FastSocManagedJobs) {
  if (!kPinnedTarget) GTEST_SKIP() << "hash pins are recorded for x86-64 without FMA";
  const SocConfig cfg = fast_config();
  Rng rng(11);
  CloudFieldParams clouds;
  clouds.day.day_length = Seconds(0.02);
  clouds.mean_gap = Seconds(0.03 * 0.08);
  clouds.mean_duration = Seconds(0.01 * 0.08);
  const IrradianceTrace trace = cloud_field(rng, clouds);
  const PvCell cell(cfg.pv);
  const SwitchedCapRegulator model_regulator;
  const Processor processor = Processor::make_test_chip();
  const SystemModel model(cell, model_regulator, processor);
  ManagedPolicyController controller(
      model, EnergyManagerParams{},
      PolicyWorkload{2e5, Seconds(5e-3), Seconds(2e-3), Seconds(1e-3)});
  SocSystem soc(cfg, std::make_unique<SwitchedCapRegulator>(), processor);
  const SimResult r = soc.run(trace, controller, Seconds(0.02));
  expect_pin("fast managed totals", totals_hash(r), 0x4934edf3dff685ddULL);
  expect_pin("fast managed waveform", waveform_hash(r.waveform), 0x871cdbf83793f789ULL);
}

TEST(HashPin, BatchFleetKernelSharedIndoorSky) {
  if (!kPinnedTarget) GTEST_SKIP() << "hash pins are recorded for x86-64 without FMA";
  FleetScenario s = pin_scenario();
  s.nodes = 32;
  s.trace_kind = TraceKind::kIndoor;
  s.shared_trace = true;
  const FleetReport r = BatchFleetKernel(s).run({.parallel = false});
  expect_pin("batch shared indoor", r.summary_hash, 0x93845089103f1552ULL);
}

TEST(HashPin, BatchFleetKernelForcedNoBypass) {
  if (!kPinnedTarget) GTEST_SKIP() << "hash pins are recorded for x86-64 without FMA";
  // The batch lane with the low-light bypass forced off (no built-in policy
  // disables it).
  static const std::string policy = [] {
    EnergyManagerParams params;
    params.low_light_bypass_enabled = false;
    PolicyRegistry::global().add(make_managed_policy(
        "pin_no_bypass", "mpp_track without the low-light bypass", params,
        false));
    return std::string("pin_no_bypass");
  }();
  FleetScenario s = pin_scenario();
  s.nodes = 32;
  s.policy = policy;
  const FleetReport r = BatchFleetKernel(s).run({.parallel = false});
  expect_pin("batch forced no-bypass", r.summary_hash, 0x18d20b833e4bc168ULL);
}

// The batch lane under the two forced bypass windows other than the legacy
// 0.9/1.2 one: a flipped comparison in the shared hysteresis rule moves
// these fleets' bypass decisions.
void expect_forced_batch_pin(const char* policy, std::uint64_t pin) {
  FleetScenario s = pin_scenario();
  s.nodes = 32;
  s.policy = policy;
  const FleetReport r = BatchFleetKernel(s).run({.parallel = false});
  expect_pin(policy, r.summary_hash, pin);
}

TEST(HashPin, BatchFleetKernelForcedHystEager) {
  if (!kPinnedTarget) GTEST_SKIP() << "hash pins are recorded for x86-64 without FMA";
  expect_forced_batch_pin("hyst_eager", 0x940b56999cd9542aULL);
}

TEST(HashPin, BatchFleetKernelForcedHystReluctant) {
  if (!kPinnedTarget) GTEST_SKIP() << "hash pins are recorded for x86-64 without FMA";
  expect_forced_batch_pin("hyst_reluctant", 0x92d6bf79ae0d0666ULL);
}

TEST(HashPin, BatchFleetKernelTracedComparatorEvents) {
  if (!kPinnedTarget) GTEST_SKIP() << "hash pins are recorded for x86-64 without FMA";
  // Indoor on/off light walks the solar node through the whole bank.
  FleetScenario s = pin_scenario();
  s.trace_kind = TraceKind::kIndoor;
  s.job_cycles = 0.0;
  const BatchFleetKernel kernel(s);
  Fnv f;
  std::size_t total = 0;
  // Each edge hashes as its index in the descending threshold bank.
  const auto& bank = kComparatorThresholds;
  for (int node = 0; node < s.nodes; ++node) {
    std::vector<ComparatorEvent> events;
    const NodeResult r = kernel.run_node_traced(node, events);
    total += events.size();
    f.add(r.cycles);
    f.add(r.harvested.value());
    for (const ComparatorEvent& e : events) {
      const auto index = std::find(bank.begin(), bank.end(), e.threshold) - bank.begin();
      ASSERT_LT(index, std::ssize(bank));
      f.add(static_cast<std::uint64_t>(index));
      f.add(static_cast<std::uint64_t>(e.edge == Edge::kRising));
      f.add(e.time.value());
    }
  }
  expect_pin("traced event count", total, 24);
  expect_pin("traced events", f.h, 0x70d3145abac39152ULL);
}

// ---------------------------------------------------------------------------
// Steps per cause.  A refactor can re-label or re-time steps without moving
// a result bit, which no hash sees.  The counts were recorded before the
// dt-ceiling label existed, when ceiling-bound steps were counted as
// deadlines: kDeadline + kDtCap must add up to that old kDeadline count.
// ---------------------------------------------------------------------------

void expect_step_counts(const solver_stats::StepSnapshot& d,
                        std::uint64_t deadline_or_cap, std::uint64_t knot,
                        std::uint64_t watch, std::uint64_t settle) {
  std::printf("steps deadline+cap %llu knot %llu watch %llu settle %llu\n",
              static_cast<unsigned long long>(d.deadline() + d.dt_cap()),
              static_cast<unsigned long long>(d.trace_knot()),
              static_cast<unsigned long long>(d.watch_bound()),
              static_cast<unsigned long long>(d.settle()));
  EXPECT_EQ(d.deadline() + d.dt_cap(), deadline_or_cap);
  EXPECT_EQ(d.trace_knot(), knot);
  EXPECT_EQ(d.watch_bound(), watch);
  EXPECT_EQ(d.settle(), settle);
}

TEST(HashPin, BatchFleetKernelStepCauses) {
  if (!kPinnedTarget) GTEST_SKIP() << "hash pins are recorded for x86-64 without FMA";
  FleetScenario s = pin_scenario();
  s.nodes = 32;
  const BatchFleetKernel kernel(s);
  const auto before = solver_stats::step_snapshot();
  (void)kernel.run({.parallel = false});
  expect_step_counts(solver_stats::step_delta_since(before), 2149, 1547,
                     905, 2163);
}

TEST(HashPin, FleetSimulatorGreedyMppStepCauses) {
  if (!kPinnedTarget) GTEST_SKIP() << "hash pins are recorded for x86-64 without FMA";
  // An audit build routes greedy_mpp to the dense loop, which takes no
  // event steps at all.
  FleetScenario s = pin_scenario();
  s.policy = "greedy_mpp";
  const FleetSimulator sim(s);
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "serial");
    const auto before = solver_stats::step_snapshot();
    (void)sim.run({.parallel = parallel});
    const auto d = solver_stats::step_delta_since(before);
    if (audit_compiled_in()) {
      expect_step_counts(d, 0, 0, 0, 0);
    } else {
      expect_step_counts(d, 738, 401, 33, 377);
    }
  }
}

}  // namespace
}  // namespace hemp
