// Fleet perf trajectory: time the reference fleet simulator and the batched
// event-driven kernel, and merge a "fleet_bench" suite into BENCH_perf.json
// next to bench_perf's.
//
// Two workloads are timed:
//
//   * A smoke-scale scenario runs through both engines, giving the honest
//     batch-vs-reference speedup on identical work plus the thread-pool
//     scaling ratio (on a single-core host ~1.0x, and recording that is the
//     point).
//
//   * The day1000 scenario (1000 nodes, compressed day) runs through the
//     batch kernel only — the reference path needs ~10 s/run there, which is
//     exactly why the kernel exists.  Its single-core run-only throughput is
//     the headline `batch_nodes_per_sec` metric tracked by bench/baseline.json.
//     The same population under one shared indoor sky (`trace = indoor`,
//     `shared_trace = true`) gives `batch_indoor_nodes_per_sec`: dim light
//     keeps its nodes in the low-light bypass, so their cost is per-node
//     controller set-up and bypass stepping rather than sky construction.
//
// Construction (trace flattening, surface builds) is timed separately from
// run(): the kernel is built once and reused, so the per-run figure is pure
// stepping throughput.  The day1000 construction is also timed cold on one
// thread and on the pool (`batch_build_parallel_speedup`), and warm, with its
// pv-range surfaces already in the process-wide cache
// (`batch_build_warm_speedup`).  Two non-stepping costs of a day1000 job are
// noted beside them: a serial flatten and coarsen of every node's cloudy sky
// (`flat_flatten_us_per_node`, `flat_coarsen_us_per_node`, with the knots
// per node before and after coarsening) and writing its report's summary
// JSON and node CSV (`batch_day1000_report_write_s`).  Both engines must
// reproduce their own summary hash across serial/parallel runs, or the bench
// aborts.
//
// Usage: fleet_bench [--quick] [--out PATH] [--day1000 PATH]
//   --quick    fewer nodes / fewer repeats (CI smoke job)
//   --out      JSON output path (default: BENCH_perf.json in the cwd)
//   --day1000  day1000 scenario path (default: scenarios/day1000.scn)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/solver_stats.hpp"
#include "common/thread_pool.hpp"
#include "fleet/batch_kernel.hpp"
#include "fleet/fleet_sim.hpp"
#include "microbench.hpp"
#include "sim/flat_model.hpp"
#include "trace/generators.hpp"

namespace {

hemp::FleetScenario bench_scenario(bool quick) {
  hemp::FleetScenario s;
  s.name = quick ? "bench_quick" : "bench";
  s.nodes = quick ? 8 : 32;
  s.seed = 1;
  s.day_length = hemp::Seconds(quick ? 0.02 : 0.05);
  s.time_step = hemp::Seconds(10e-6);
  s.waveform_interval = hemp::Seconds(500e-6);
  s.trace_kind = hemp::TraceKind::kClouds;
  s.job_cycles = 1e6;
  s.job_period = hemp::Seconds(10e-3);
  s.job_deadline = hemp::Seconds(4e-3);
  return s;
}

/// Median wall time of `repeats` serial flattens of `skies` onto `t_end`, in
/// microseconds per sky; `out` receives the last repeat's traces.
double flatten_us_per_trace(const std::vector<hemp::IrradianceTrace>& skies,
                            double t_end, int repeats,
                            std::vector<hemp::flat::FlatTrace>& out) {
  std::vector<double> secs;
  for (int r = 0; r < repeats; ++r) {
    out.clear();
    out.reserve(skies.size());
    const auto start = std::chrono::steady_clock::now();
    for (const hemp::IrradianceTrace& sky : skies) {
      out.push_back(hemp::flat::flatten_trace(sky, t_end));
    }
    secs.push_back(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count());
    hemp::microbench::keep(out.back().ts.size());
  }
  std::sort(secs.begin(), secs.end());
  return 1e6 * secs[secs.size() / 2] / static_cast<double>(skies.size());
}

/// Median wall time of `repeats` serial coarsens of `traces` (each repeat
/// coarsens a fresh, untimed copy), in microseconds per trace; `out`
/// receives the last repeat's coarsened traces.
double coarsen_us_per_trace(const std::vector<hemp::flat::FlatTrace>& traces,
                            double budget, int repeats,
                            std::vector<hemp::flat::FlatTrace>& out) {
  std::vector<double> secs;
  for (int r = 0; r < repeats; ++r) {
    out = traces;
    const auto start = std::chrono::steady_clock::now();
    for (hemp::flat::FlatTrace& ft : out) ft.coarsen(budget);
    secs.push_back(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count());
    hemp::microbench::keep(out.back().ts.size());
  }
  std::sort(secs.begin(), secs.end());
  return 1e6 * secs[secs.size() / 2] / static_cast<double>(traces.size());
}

double knots_per_trace(const std::vector<hemp::flat::FlatTrace>& traces) {
  double knots = 0.0;
  for (const hemp::flat::FlatTrace& ft : traces) {
    knots += static_cast<double>(ft.ts.size());
  }
  return knots / static_cast<double>(traces.size());
}

bool check_hash(const char* what, std::uint64_t a, std::uint64_t b) {
  if (a == b) return true;
  std::fprintf(stderr, "fleet_bench: determinism violation — %s: %s vs %s\n",
               what, hemp::hash_hex(a).c_str(),
               hemp::hash_hex(b).c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hemp;

  bool quick = false;
  std::string out_path = "BENCH_perf.json";
  std::string day1000_path = "scenarios/day1000.scn";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--day1000") == 0 && i + 1 < argc) {
      day1000_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: fleet_bench [--quick] [--out PATH] "
                   "[--day1000 PATH]\n");
      return 2;
    }
  }
  const int repeats = quick ? 3 : 5;

  bench::header("fleet_bench",
                "fleet engine scaling, reference vs batch (BENCH_perf.json)");
  const FleetScenario scenario = bench_scenario(quick);
  const FleetSimulator sim(scenario);

  microbench::Suite suite("fleet_bench");
  std::uint64_t serial_hash = 0;
  std::uint64_t parallel_hash = 0;
  const auto serial = suite.run(
      "fleet_run_serial",
      [&] {
        const FleetReport r = sim.run({.parallel = false});
        serial_hash = r.summary_hash;
        microbench::keep(r.total_cycles);
      },
      /*min_seconds=*/0.0, /*max_iters=*/1, repeats);
  const auto parallel = suite.run(
      "fleet_run_parallel",
      [&] {
        const FleetReport r = sim.run({.parallel = true});
        parallel_hash = r.summary_hash;
        microbench::keep(r.total_cycles);
      },
      /*min_seconds=*/0.0, /*max_iters=*/1, repeats);
  if (!check_hash("reference serial vs parallel", serial_hash, parallel_hash)) {
    return 1;
  }

  // Batch kernel on the same scenario.  Construction (trace flattening and
  // surface builds, exact solves allowed) is timed once; the timed run() is
  // pure event-driven stepping.
  const auto batch_build_start = std::chrono::steady_clock::now();
  const BatchFleetKernel kernel(scenario);
  const double batch_build_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    batch_build_start)
          .count();
  std::uint64_t batch_serial_hash = 0;
  std::uint64_t batch_parallel_hash = 0;
  const auto batch_serial = suite.run(
      "batch_run_serial",
      [&] {
        const FleetReport r = kernel.run({.parallel = false});
        batch_serial_hash = r.summary_hash;
        microbench::keep(r.total_cycles);
      },
      /*min_seconds=*/0.0, /*max_iters=*/1, repeats);
  (void)suite.run(
      "batch_run_parallel",
      [&] {
        const FleetReport r = kernel.run({.parallel = true});
        batch_parallel_hash = r.summary_hash;
        microbench::keep(r.total_cycles);
      },
      /*min_seconds=*/0.0, /*max_iters=*/1, repeats);
  if (!check_hash("batch serial vs parallel", batch_serial_hash,
                  batch_parallel_hash)) {
    return 1;
  }

  // Headline metric: batch kernel on the day1000 scenario, single core.
  // Quick mode trims the population — per-node throughput is what the
  // baseline gate bands, and it is roughly population-independent.
  double day1000_nodes_per_sec = 0.0;
  double indoor_nodes_per_sec = 0.0;
  double day1000_build_serial_s = 0.0;
  double day1000_build_parallel_s = 0.0;
  double day1000_build_warm_s = 0.0;
  double day1000_flatten_us = 0.0;
  double day1000_coarsen_us = 0.0;
  double day1000_knots_flat = 0.0;
  double day1000_knots_coarse = 0.0;
  double day1000_write_s = 0.0;
  int day1000_nodes = 0;
  std::uint64_t day1000_hash = 0;
  hemp::solver_stats::StepSnapshot day1000_steps{};
  double day1000_runs = 0.0;
  try {
    FleetScenario day = FleetScenario::from_file(day1000_path);
    const int sky_nodes = day.nodes;  // every node's sky, also in --quick
    if (quick) day.nodes = 64;
    day.validate();
    day1000_nodes = day.nodes;
    // Cold construction on one thread and on the shared pool: its
    // independent work units (surface slices, crossover cells, node blocks)
    // are what the parallel build spreads out.  The surfaces are cached per
    // pv-scale range for the process, so each cold repeat widens the range
    // by another 1e-9 to miss the cache.
    int cold_builds = 0;
    const auto cold_build = [&](bool parallel) {
      FleetScenario s = day;
      s.pv_scale_max += 1e-9 * ++cold_builds;
      const BatchFleetKernel k(s, {.parallel = parallel});
      microbench::keep(k);
    };
    const auto build_serial = suite.run(
        "batch_day1000_build_serial", [&] { cold_build(false); },
        /*min_seconds=*/0.0, /*max_iters=*/1, repeats);
    const auto build_parallel = suite.run(
        "batch_day1000_build_parallel", [&] { cold_build(true); },
        /*min_seconds=*/0.0, /*max_iters=*/1, repeats);
    day1000_build_serial_s = build_serial.seconds_per_batch();
    day1000_build_parallel_s = build_parallel.seconds_per_batch();
    const BatchFleetKernel day_kernel(day);
    // Warm construction on the pool: day_kernel left day's surfaces in the
    // cache, and each repeat samples a new seed over the same range.
    std::uint64_t warm_seed = day.seed;
    const auto build_warm = suite.run(
        "batch_day1000_build_warm",
        [&] {
          FleetScenario s = day;
          s.seed = ++warm_seed;
          const BatchFleetKernel k(s);
          microbench::keep(k);
        },
        /*min_seconds=*/0.0, /*max_iters=*/1, repeats);
    day1000_build_warm_s = build_warm.seconds_per_batch();
    const auto steps_before = hemp::solver_stats::step_snapshot();
    const auto day_run = suite.run(
        "batch_day1000_serial",
        [&] {
          const FleetReport r = day_kernel.run({.parallel = false});
          day1000_hash = r.summary_hash;
          day1000_runs += 1.0;
          microbench::keep(r.total_cycles);
        },
        /*min_seconds=*/0.0, /*max_iters=*/1, repeats);
    day1000_nodes_per_sec = day.nodes / day_run.seconds_per_batch();
    day1000_steps = hemp::solver_stats::step_delta_since(steps_before);

    // The same population under one shared indoor sky, serial run only.
    FleetScenario indoor = day;
    indoor.set("trace", "indoor");
    indoor.set("shared_trace", "true");
    indoor.validate();
    const BatchFleetKernel indoor_kernel(indoor);
    const auto indoor_run = suite.run(
        "batch_indoor_serial",
        [&] {
          const FleetReport r = indoor_kernel.run({.parallel = false});
          microbench::keep(r.total_cycles);
        },
        /*min_seconds=*/0.0, /*max_iters=*/1, repeats);
    indoor_nodes_per_sec = indoor.nodes / indoor_run.seconds_per_batch();

    // The report a fleetsim day1000 job ends with.
    const FleetReport day_report = day_kernel.run();
    const std::string stem = output_path("fleet_bench_day1000");
    const auto write = suite.run(
        "batch_day1000_report_write",
        [&] {
          write_summary_json(day_report, stem + "_summary.json");
          write_node_csv(day_report, stem + "_nodes.csv");
        },
        /*min_seconds=*/0.0, /*max_iters=*/1, repeats);
    day1000_write_s = write.seconds_per_batch();

    // The cloud deck's per-node skies on day1000's timeline (one RNG fork
    // per node, all of the scenario's nodes), flattened and then coarsened
    // under the kernel's budget, each timed serially.
    if (day.trace_kind == TraceKind::kClouds) {
      CloudFieldParams deck;
      deck.day.day_length = day.day_length;
      const double stretch = day.day_length.value() / 0.25;
      deck.mean_gap = Seconds(0.03 * stretch);
      deck.mean_duration = Seconds(0.01 * stretch);
      std::vector<IrradianceTrace> skies;
      skies.reserve(static_cast<std::size_t>(sky_nodes));
      for (int i = 0; i < sky_nodes; ++i) {
        Rng rng = Rng(day.seed).fork(static_cast<std::uint64_t>(i));
        skies.push_back(cloud_field(rng, deck));
      }
      std::vector<flat::FlatTrace> traces, coarse;
      day1000_flatten_us = flatten_us_per_trace(
          skies, day.day_length.value(), repeats, traces);
      day1000_coarsen_us = coarsen_us_per_trace(
          traces, day.trace_coarsen_eps * day.day_length.value(), repeats,
          coarse);
      day1000_knots_flat = knots_per_trace(traces);
      day1000_knots_coarse = knots_per_trace(coarse);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "fleet_bench: skipping day1000 (%s): %s\n"
                 "  (run from the repo root or pass --day1000)\n",
                 day1000_path.c_str(), e.what());
  }

  suite.note("fleet_nodes", scenario.nodes);
  suite.note("fleet_day_length_s", scenario.day_length.value());
  suite.note("fleet_nodes_per_sec",
             scenario.nodes / parallel.seconds_per_batch());
  suite.note("fleet_parallel_speedup",
             serial.seconds_per_batch() / parallel.seconds_per_batch());
  suite.note("batch_build_s", batch_build_s);
  suite.note("batch_vs_reference_speedup",
             serial.seconds_per_batch() / batch_serial.seconds_per_batch());
  suite.note("batch_day1000_nodes", day1000_nodes);
  suite.note("batch_nodes_per_sec", day1000_nodes_per_sec);
  if (indoor_nodes_per_sec > 0.0) {
    suite.note("batch_indoor_nodes_per_sec", indoor_nodes_per_sec);
  }
  if (day1000_build_parallel_s > 0.0) {
    suite.note("batch_day1000_build_serial_s", day1000_build_serial_s);
    suite.note("batch_day1000_build_parallel_s", day1000_build_parallel_s);
    suite.note("batch_build_parallel_speedup",
               day1000_build_serial_s / day1000_build_parallel_s);
    suite.note("batch_day1000_build_warm_s", day1000_build_warm_s);
    suite.note("batch_build_warm_speedup",
               day1000_build_parallel_s / day1000_build_warm_s);
  }
  if (day1000_write_s > 0.0) {
    suite.note("batch_day1000_report_write_s", day1000_write_s);
  }
  if (day1000_coarsen_us > 0.0) {
    suite.note("flat_flatten_us_per_node", day1000_flatten_us);
    suite.note("flat_coarsen_us_per_node", day1000_coarsen_us);
    // Deterministic knot counts per node, banded tightly: a change to the
    // flattening or coarsening semantics moves them.
    suite.note("flat_knots_per_node", day1000_knots_flat);
    suite.note("flat_coarse_knots_per_node", day1000_knots_coarse);
  }
  // Step-count floor: the event-driven kernel's per-step cost is lean, so
  // throughput is governed by how many steps a node-day takes.  Tracked by
  // cause so the floor stays a measured quantity (bench/baseline.json bands
  // a ceiling on the total).
  if (day1000_nodes > 0 && day1000_runs > 0.0) {
    const double node_days = day1000_nodes * day1000_runs;
    suite.note("steps_per_node_day",
               static_cast<double>(day1000_steps.total()) / node_days);
    suite.note("steps_trace_knot",
               static_cast<double>(day1000_steps.trace_knot()) / node_days);
    suite.note("steps_deadline",
               static_cast<double>(day1000_steps.deadline()) / node_days);
    suite.note("steps_dt_cap",
               static_cast<double>(day1000_steps.dt_cap()) / node_days);
    suite.note("steps_watch_bound",
               static_cast<double>(day1000_steps.watch_bound()) / node_days);
    suite.note("steps_settle",
               static_cast<double>(day1000_steps.settle()) / node_days);
  }
  suite.note("thread_pool_size", ThreadPool::shared().size());

  suite.print();
  std::printf("\n  determinism: reference serial == parallel (%s)\n",
              hash_hex(serial_hash).c_str());
  std::printf("  determinism: batch serial == parallel (%s)\n",
              hash_hex(batch_serial_hash).c_str());
  if (day1000_nodes > 0) {
    std::printf("  day1000[%d nodes]: %.0f nodes/s single-core (%s)\n",
                day1000_nodes, day1000_nodes_per_sec,
                hash_hex(day1000_hash).c_str());
  }
  if (!suite.write_json_merged(out_path)) {
    std::fprintf(stderr, "fleet_bench: failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("  timings merged into %s\n", out_path.c_str());
  return 0;
}
