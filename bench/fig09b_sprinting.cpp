// Fig. 9b — sprinting operation: run slower than nominal early (keeping the
// solar node at a higher, more productive voltage) and faster late, plus
// regulator bypass at the tail.  Paper: sprinting absorbs up to ~10% more
// solar energy; bypass extends the usable capacitor energy by ~25%.
#include <memory>

#include "bench_common.hpp"
#include "core/sprint_scheduler.hpp"
#include "regulator/buck.hpp"
#include "sim/soc_system.hpp"

namespace {

using namespace hemp;
using namespace hemp::literals;

void print_figure() {
  bench::header("Fig. 9b", "sprinting + regulator bypass");
  const bench::Rig<BuckRegulator> rig;
  const SprintScheduler scheduler(rig.model);

  // Sprint pays off when demand exceeds the harvest in both phases so the
  // solar node is monotonically discharging (the paper's Fig. 9b setting):
  // the slow phase then keeps the node near the high-power region longer.
  const double g = 0.5;
  const Volts v_start(find_mpp(rig.cell, g).voltage);
  const double cycles = 1.5e6;
  const Seconds deadline = 2.0_ms;

  bench::section("analytic sprint gain vs sprint factor (G = 0.5, 2 ms job)");
  std::printf("%10s %16s %14s\n", "s", "extra solar", "end Vsolar");
  for (double s : {0.0, 0.1, 0.2, 0.3, 0.4}) {
    const SprintPlan plan = scheduler.plan(cycles, deadline, s);
    if (!plan.feasible) continue;
    const auto gain = scheduler.evaluate_gain(plan, g, 47.0_uF, v_start);
    std::printf("%10.1f %15.2f%% %11.3f V\n", s, gain.extra_solar_fraction * 100,
                gain.end_voltage_sprint.value());
  }

  bench::section("transient run under dying light (step to darkness at 2 ms)");
  const SprintPlan plan = scheduler.plan(9.65e6, 16.0_ms, 0.2);
  const auto dimming = IrradianceTrace::step(1.0, 0.0, 2.0_ms);

  auto run_variant = [&](bool enable_bypass) {
    SprintController ctrl(rig.model, plan, enable_bypass);
    SocSystem soc(SocConfig{}, std::make_unique<BuckRegulator>(),
                  Processor::make_test_chip());
    const SimResult r = soc.run(dimming, ctrl, 40.0_ms);
    return std::make_pair(r.totals, ctrl.bypass_engaged());
  };
  const auto [with_bypass, engaged] = run_variant(true);
  const auto [without_bypass, _] = run_variant(false);

  std::printf("  regulator only:   %.2f M cycles before the rail died\n",
              without_bypass.cycles / 1e6);
  std::printf("  with bypass:      %.2f M cycles (bypass engaged: %s)\n",
              with_bypass.cycles / 1e6, engaged ? "yes" : "no");

  bench::section("paper vs measured");
  const SprintPlan gain_plan = scheduler.plan(cycles, deadline, 0.2);
  const auto gain = scheduler.evaluate_gain(gain_plan, g, 47.0_uF, v_start);
  bench::report("extra solar energy from sprinting (s=0.2)", "<= ~10%",
                bench::fmt("%+.1f%%", gain.extra_solar_fraction * 100));
  const double extension =
      (with_bypass.cycles - without_bypass.cycles) / without_bypass.cycles;
  bench::report("operation extension from bypass", "~20-25% more usable energy",
                bench::fmt("%+.0f%% more cycles", extension * 100));
}

void BM_SprintPlan(benchmark::State& state) {
  const bench::Rig<BuckRegulator> rig;
  const SprintScheduler scheduler(rig.model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.plan(9.65e6, Seconds(16e-3), 0.2));
  }
}
BENCHMARK(BM_SprintPlan);

void BM_GainEvaluation(benchmark::State& state) {
  const bench::Rig<BuckRegulator> rig;
  const SprintScheduler scheduler(rig.model);
  const SprintPlan plan = scheduler.plan(9.65e6, Seconds(16e-3), 0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.evaluate_gain(plan, 0.3, Farads(47e-6),
                                                     Volts(1.1)));
  }
}
BENCHMARK(BM_GainEvaluation)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  return hemp::bench::run(argc, argv);
}
