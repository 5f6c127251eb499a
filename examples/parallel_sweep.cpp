// Parallel design-space sweep with the performance layer.
//
// Characterizes the regulated operating point over a light-level grid two
// ways and reports how long each takes:
//   1. serial, exact model (every point pays the full grid scan + Brent
//      solve);
//   2. the same solves in parallel on the shared thread pool
//      (sim/sweep.hpp), all workers sharing one SystemModel.
// Each run gets a fresh model, so both start with a cold MPP memo.  The two
// result vectors are identical — the sweep engine guarantees the parallel
// run is bit-identical to the serial loop — so the only difference is
// wall-clock time.
#include <chrono>
#include <cstdio>
#include <vector>

#include "core/perf_optimizer.hpp"
#include "core/system_model.hpp"
#include "harvester/pv_cell.hpp"
#include "processor/processor.hpp"
#include "regulator/switched_cap.hpp"
#include "sim/sweep.hpp"

int main() {
  using namespace hemp;
  using Clock = std::chrono::steady_clock;

  const PvCell cell = make_ixys_kxob22_cell();
  const SwitchedCapRegulator sc;
  const Processor proc = Processor::make_test_chip();

  const std::vector<double> lights = linspace(0.05, 1.2, 240);
  auto sweep = [&](bool parallel) {
    const SystemModel model(cell, sc, proc);
    const PerformanceOptimizer opt(model);
    return sweep_map(lights, [&](double g) { return opt.regulated(g); },
                     {.parallel = parallel});
  };
  auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  };

  std::printf("=== Regulated operating point over %zu light levels ===\n",
              lights.size());

  // 1. Serial, exact model.
  auto t0 = Clock::now();
  const auto serial = sweep(/*parallel=*/false);
  const double t_serial = ms_since(t0);
  std::printf("serial / exact model:       %8.1f ms\n", t_serial);

  // 2. Parallel, exact model, shared thread pool.
  t0 = Clock::now();
  const auto parallel = sweep(/*parallel=*/true);
  const double t_par = ms_since(t0);
  std::printf("parallel / exact model:     %8.1f ms (%u worker threads, %.2fx)\n",
              t_par, ThreadPool::shared().size(), t_serial / t_par);

  // The determinism contract: parallel == serial, bit for bit.
  bool identical = true;
  for (std::size_t i = 0; i < lights.size(); ++i) {
    identical = identical &&
                serial[i].frequency.value() == parallel[i].frequency.value() &&
                serial[i].vdd.value() == parallel[i].vdd.value();
  }
  std::printf("parallel == serial:         %s\n", identical ? "yes" : "NO");

  // Peak of the sweep, for flavour.
  std::size_t best = 0;
  for (std::size_t i = 1; i < lights.size(); ++i) {
    if (serial[i].frequency.value() > serial[best].frequency.value()) best = i;
  }
  std::printf("fastest point:              %.0f MHz at G=%.2f, Vdd=%.2f V\n",
              serial[best].frequency.value() / 1e6, lights[best],
              serial[best].vdd.value());
  return identical ? 0 : 1;
}
