// Perf trajectory bench: times the hot kernels and writes BENCH_perf.json.
//
// Five kernel families and two work counts are tracked PR-over-PR:
//   * the MPP solve (exact solve vs quantized cache hit);
//   * the fig07a-style light sweep of delivered power;
//   * the regulated performance point (grid scan + Brent) and the holistic
//     MEP solve;
//   * one second of SocSystem::run simulated time;
//   * the exact MPP solves one cold greedy_mpp node pays;
//   * the event steps one cold edf_sprint node takes per node-day.
// Plus the parallel-vs-serial scaling of a regulated-point sweep over one
// shared model on the shared thread pool.
//
// Usage: bench_perf [--quick] [--out PATH]
//   --quick   reduced iteration counts / shorter sim (CI smoke job)
//   --out     JSON output path (default: BENCH_perf.json in the cwd)
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/solver_stats.hpp"
#include "core/mep_optimizer.hpp"
#include "core/perf_optimizer.hpp"
#include "microbench.hpp"
#include "policy/registry.hpp"
#include "sim/soc_system.hpp"
#include "trace/generators.hpp"

namespace {

using namespace hemp;

// Cycle deterministically through sweep-typical light levels so cache-hit
// kernels cannot degenerate into a single-key lookup.
struct LightCycler {
  const std::vector<double> levels = linspace(0.1, 1.0, 16);
  std::size_t i = 0;
  double next() {
    const double g = levels[i];
    i = (i + 1) % levels.size();
    return g;
  }
};

void bench_mpp(microbench::Suite& suite, bench::ScRig& rig, double min_seconds) {
  LightCycler lights;
  suite.run("mpp_solve_exact",
            [&] { microbench::keep(find_mpp(rig.cell, lights.next())); },
            min_seconds);
  suite.run("mpp_cache_hit", [&] { microbench::keep(rig.model.mpp(0.5)); },
            min_seconds);
}

void bench_light_sweep(microbench::Suite& suite, bench::ScRig& rig,
                       double min_seconds) {
  // The fig07a kernel: delivered power over a Vdd x light grid.
  const std::vector<double> vs = linspace(0.3, 0.75, 10);
  const std::vector<double> gs = {1.0, 0.5, 0.25};
  suite.run(
      "light_sweep_uncached",
      [&] {
        double acc = 0.0;
        for (const double v : vs) {
          for (const double g : gs) {
            acc += rig.model.delivered_power(Volts(v), g).value();
          }
        }
        microbench::keep(acc);
      },
      min_seconds);
}

void bench_optimizers(microbench::Suite& suite, bench::ScRig& rig,
                      double min_seconds) {
  const PerformanceOptimizer exact(rig.model);
  LightCycler lights;
  suite.run("regulated_perf_point_exact",
            [&] { microbench::keep(exact.regulated(lights.next())); },
            min_seconds);

  const MepOptimizer mep(rig.model);
  suite.run("holistic_mep", [&] { microbench::keep(mep.holistic(1.0)); },
            min_seconds);
}

void bench_soc_run(microbench::Suite& suite, double simulated_seconds,
                   bool quick) {
  const std::string tag =
      std::to_string(static_cast<int>(simulated_seconds * 1e3)) + "ms";
  // One dense-reference transient run is seconds of wall time, so the batch is
  // pinned at a single iteration; the repeat loop still reruns it and reports
  // the median.
  const auto ref = suite.run(
      "soc_run_" + tag,
      [&] {
        SocSystem soc(SocConfig{}, std::make_unique<SwitchedCapRegulator>(),
                      Processor::make_test_chip());
        FixedPointController ctrl(PowerPath::kRegulated, Volts(0.5),
                                  Hertz(100e6));
        microbench::keep(soc.run(IrradianceTrace::constant(1.0), ctrl,
                                 Seconds(simulated_seconds)));
      },
      /*min_seconds=*/0.0, /*max_iters=*/1, /*min_repeats=*/quick ? 3 : 5);

  // Same transient on the surface-only event-driven engine.  The SocSystem is
  // hoisted so repeats reuse the cached surfaces, matching the steady-state
  // sweep use case; the first (cold, surface-building) run is timed separately.
  SocConfig fast_cfg;
  fast_cfg.fast_path = true;
  // In HEMP_AUDIT builds the config default is audit=true, which would force
  // the dispatcher back onto the dense loop and time the reference twice.
  fast_cfg.audit = false;
  SocSystem fast_soc(fast_cfg, std::make_unique<SwitchedCapRegulator>(),
                     Processor::make_test_chip());
  FixedPointController fast_ctrl(PowerPath::kRegulated, Volts(0.5),
                                 Hertz(100e6));
  const std::uint64_t cells_before = solver_stats::iv_cells_solved().load();
  const auto cold_start = std::chrono::steady_clock::now();
  microbench::keep(fast_soc.run(IrradianceTrace::constant(1.0), fast_ctrl,
                                Seconds(simulated_seconds)));
  suite.note("soc_fast_cold_ms",
             std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - cold_start)
                 .count());
  // IV-surface cells the cold run solved: only the blocks the run touches,
  // up to the trace's peak irradiance — not the whole 160 x 64 grid.
  suite.note("soc_fast_cold_iv_cells",
             static_cast<double>(solver_stats::iv_cells_solved().load() -
                                 cells_before));
  const auto fast = suite.run(
      "soc_run_fast_" + tag,
      [&] {
        microbench::keep(fast_soc.run(IrradianceTrace::constant(1.0), fast_ctrl,
                                      Seconds(simulated_seconds)));
      },
      /*min_seconds=*/0.0, /*max_iters=*/1, /*min_repeats=*/quick ? 5 : 9);
  suite.note("soc_fast_speedup", ref.ns_per_iter / fast.ns_per_iter);
}

// Exact MPP solves one greedy_mpp node pays cold: make_controller (the
// full-sun MPP target, and the MPPT lookup table) plus one fast-path run over
// a fixed cloudy day.  The fleet's tracking-error pass over the waveform is
// left out.  A deterministic work count: the table solves only the knots the
// run reads, where an eager table would solve all of them up front.  The
// node has the fleet's smallest solar storage (22 uF), so the clouds pull it
// through the threshold-timer window and the run does read the table.
void bench_greedy_cold_solves(microbench::Suite& suite) {
  SocConfig cfg;
  cfg.fast_path = true;
  cfg.audit = false;  // an audit build would route the run to the dense loop
  cfg.solar_capacitance = Farads(22e-6);
  const PvCell cell(cfg.pv);
  const SwitchedCapRegulator model_regulator;
  const Processor processor = Processor::make_test_chip();
  const SystemModel model(cell, model_regulator, processor);
  Rng rng(2018);
  const IrradianceTrace trace = cloud_field(rng, CloudFieldParams{});
  PolicyContext ctx;
  ctx.model = &model;
  ctx.workload = {2e6, Seconds(40e-3), Seconds(8e-3), Seconds(0.0)};
  ctx.day_length = Seconds(0.25);
  ctx.solar_capacitance = cfg.solar_capacitance;
  const auto before = solver_stats::snapshot();
  const auto controller =
      PolicyRegistry::global().at("greedy_mpp").make_controller(ctx);
  SocSystem soc(cfg, std::make_unique<SwitchedCapRegulator>(), processor);
  microbench::keep(soc.run(trace, *controller, ctx.day_length));
  suite.note("greedy_cold_mpp_solves",
             static_cast<double>(solver_stats::delta_since(before).mpp_solves));
}

// Event steps one cold edf_sprint node takes per node-day on the fast
// engine: day1000's node (5 us reference tick, 250 us waveform cadence) and
// workload on the fixed cloudy day above.  A deterministic work count: the
// managed controller's step hint bounds each step, so a hint that asks for
// more reference ticks grows it.
void bench_edf_cold_steps(microbench::Suite& suite) {
  SocConfig cfg;
  cfg.fast_path = true;
  cfg.audit = false;  // an audit build would route the run to the dense loop
  cfg.time_step = Seconds(5e-6);
  cfg.waveform_interval = Seconds(250e-6);
  const PvCell cell(cfg.pv);
  const SwitchedCapRegulator model_regulator;
  const Processor processor = Processor::make_test_chip();
  const SystemModel model(cell, model_regulator, processor);
  Rng rng(2018);
  const IrradianceTrace trace = cloud_field(rng, CloudFieldParams{});
  PolicyContext ctx;
  ctx.model = &model;
  ctx.workload = {2e6, Seconds(40e-3), Seconds(8e-3), Seconds(0.0)};
  ctx.day_length = Seconds(0.25);
  ctx.solar_capacitance = cfg.solar_capacitance;
  const auto controller =
      PolicyRegistry::global().at("edf_sprint").make_controller(ctx);
  SocSystem soc(cfg, std::make_unique<SwitchedCapRegulator>(), processor);
  const auto before = solver_stats::step_snapshot();
  microbench::keep(soc.run(trace, *controller, ctx.day_length));
  suite.note("edf_cold_steps_per_node_day",
             static_cast<double>(solver_stats::step_delta_since(before).total()));
}

void bench_parallel_sweep(microbench::Suite& suite, bench::ScRig& rig,
                          double min_seconds) {
  // Every worker shares one model, as a figure sweep does; each regulated
  // solve reads the model's MPP memo once.
  const PerformanceOptimizer opt(rig.model);
  const std::vector<double> gs = linspace(0.1, 1.0, 64);
  auto solve = [&](double g) { return opt.regulated(g).frequency.value(); };
  // Keep the model's MPP cache warm so both paths time pure compute.
  (void)sweep_map(gs, solve, {.parallel = false});
  const auto serial = suite.run(
      "sweep_64pt_serial",
      [&] { microbench::keep(sweep_map(gs, solve, {.parallel = false})); },
      min_seconds);
  const auto parallel = suite.run(
      "sweep_64pt_parallel",
      [&] { microbench::keep(sweep_map(gs, solve)); }, min_seconds);
  suite.note("parallel_sweep_speedup",
             serial.ns_per_iter / parallel.ns_per_iter);
  suite.note("thread_pool_size", ThreadPool::shared().size());
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_perf.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_perf [--quick] [--out PATH]\n");
      return 2;
    }
  }
  const double min_seconds = quick ? 0.02 : 0.2;
  const double sim_seconds = quick ? 0.05 : 1.0;

  bench::header("bench_perf", "hot-kernel perf trajectory (BENCH_perf.json)");
  bench::ScRig rig;

  microbench::Suite suite("bench_perf");
  bench_mpp(suite, rig, min_seconds);
  bench_light_sweep(suite, rig, min_seconds);
  bench_optimizers(suite, rig, min_seconds);
  bench_soc_run(suite, sim_seconds, quick);
  bench_greedy_cold_solves(suite);
  bench_edf_cold_steps(suite);
  bench_parallel_sweep(suite, rig, min_seconds);

  suite.print();
  if (!suite.write_json_merged(out_path)) {
    std::fprintf(stderr, "bench_perf: failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\n  timings written to %s\n", out_path.c_str());
  return 0;
}
