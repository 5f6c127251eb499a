// Fig. 11b — measured waveform of the proposed sprinting operation on the
// test chip: as the light dims the solar node decays; the processor first
// runs slower, then sprints; when the regulator can no longer hold the rail
// it is bypassed, extending operation.  Paper: +3 ms (~20%) extension from
// bypass, ~10% more solar energy absorbed from sprinting at a 20% rate.
#include <memory>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "core/sprint_scheduler.hpp"
#include "imgproc/pipeline.hpp"
#include "regulator/buck.hpp"
#include "sim/soc_system.hpp"

namespace {

using namespace hemp;
using namespace hemp::literals;

struct RunOutcome {
  SimResult result;
  bool bypassed;
  double bypass_ms;
};

RunOutcome run_variant(const SystemModel& model, const SprintPlan& plan,
                       const IrradianceTrace& trace, bool enable_bypass) {
  SprintController ctrl(model, plan, enable_bypass);
  SocSystem soc(SocConfig{}, std::make_unique<BuckRegulator>(),
                Processor::make_test_chip());
  SimResult r = soc.run(trace, ctrl, 60.0_ms);
  const double t_bp =
      ctrl.bypass_time() ? ctrl.bypass_time()->value() * 1e3 : -1.0;
  return {std::move(r), ctrl.bypass_engaged(), t_bp};
}

void print_figure() {
  bench::header("Fig. 11b", "sprinting + bypass waveform under dying light");
  const bench::Rig<BuckRegulator> rig;
  const SprintScheduler scheduler(rig.model);

  // The paper's demonstration workload: one 64x64 recognition frame.
  const RecognitionPipeline pipeline = RecognitionPipeline::make_test_chip_pipeline();
  // Deadline tight enough that demand exceeds the (dying) supply from the
  // start — the Fig. 11b setting where sprinting and bypass both matter.
  const double cycles = pipeline.frame_cycles(64, 64);
  const Seconds deadline = 14.0_ms;
  const auto dimming = IrradianceTrace::ramp(1.0, 0.0, 0.5_ms, 6.0_ms);

  const SprintPlan sprint = scheduler.plan(cycles, deadline, 0.2);
  const SprintPlan constant = scheduler.plan(cycles, deadline, 0.0);

  // The three A/B variants are independent simulations — run them through
  // the parallel sweep engine (results identical to back-to-back calls).
  struct Variant {
    const SprintPlan* plan;
    bool bypass;
  };
  const std::vector<Variant> variants = {
      {&sprint, true}, {&constant, true}, {&sprint, false}};
  const std::vector<RunOutcome> outcomes =
      sweep_map(variants, [&](const Variant& v) {
        return run_variant(rig.model, *v.plan, dimming, v.bypass);
      });
  const RunOutcome& w_sprint = outcomes[0];
  const RunOutcome& wo_sprint = outcomes[1];
  const RunOutcome& wo_bypass = outcomes[2];
  w_sprint.result.waveform.write_csv(hemp::output_path("fig11b_waveform.csv"));

  bench::section("waveform with sprinting + bypass (solar Vdd and processor Vdd)");
  std::printf("%10s %10s %10s %10s\n", "t (ms)", "Vsolar", "Vdd", "f (MHz)");
  for (double t_ms = 0.0; t_ms <= 30.0 + 1e-9; t_ms += 1.5) {
    const Seconds ts(t_ms * 1e-3);
    std::printf("%10.1f %10.3f %10.3f %10.0f\n", t_ms,
                w_sprint.result.waveform.value_at("v_solar", ts),
                w_sprint.result.waveform.value_at("v_dd", ts),
                w_sprint.result.waveform.value_at("frequency_hz", ts) / 1e6);
  }

  bench::section("variant comparison");
  std::printf("  sprint + bypass:  %.2f M cycles, bypass at %.1f ms\n",
              w_sprint.result.totals.cycles / 1e6, w_sprint.bypass_ms);
  std::printf("  constant + bypass:%.2f M cycles\n",
              wo_sprint.result.totals.cycles / 1e6);
  std::printf("  sprint, no bypass:%.2f M cycles\n",
              wo_bypass.result.totals.cycles / 1e6);

  bench::section("paper vs measured");
  const double extension =
      (w_sprint.result.totals.cycles - wo_bypass.result.totals.cycles) /
      wo_bypass.result.totals.cycles;
  bench::report("operation extension from bypass", "+3 ms / ~20%",
                bench::fmt("%+.0f%% more cycles", extension * 100));
  // The paper's "10% more energy absorbed by sprinting at 20% rate" is an
  // energy-balance statement over the discharging window; evaluate it with
  // the Eq. 12 integrator on a matched net-discharge scenario (see Fig. 9b).
  const double g_dim = 0.5;
  const SprintPlan gain_plan = scheduler.plan(1.5e6, 2.0_ms, 0.2);
  const auto gain = scheduler.evaluate_gain(gain_plan, g_dim, 47.0_uF,
                                            find_mpp(rig.cell, g_dim).voltage);
  bench::report("extra solar energy from sprinting (20% rate)", "~10%",
                bench::fmt("%+.1f%%", gain.extra_solar_fraction * 100));
  // Also show the raw transient A/B inside the deadline window for reference.
  const double harv_sprint =
      w_sprint.result.waveform.integral("p_harvest_w", 0.0_s, deadline);
  const double harv_const =
      wo_sprint.result.waveform.integral("p_harvest_w", 0.0_s, deadline);
  bench::report("transient harvested-in-window A/B", "(not reported in paper)",
                bench::fmt("%+.1f%%", (harv_sprint - harv_const) / harv_const * 100));
  bench::report("bypass engaged when regulator lost headroom", "yes",
                w_sprint.bypassed ? "yes" : "no");
  std::printf("\n  full waveform written to out/fig11b_waveform.csv\n");
}

void BM_SprintTransient(benchmark::State& state) {
  const bench::Rig<BuckRegulator> rig;
  const SprintScheduler scheduler(rig.model);
  const SprintPlan plan = scheduler.plan(9.65e6, Seconds(16e-3), 0.2);
  const auto dimming = IrradianceTrace::ramp(1.0, 0.0, Seconds(1e-3), Seconds(4e-3));
  for (auto _ : state) {
    SprintController ctrl(rig.model, plan, true);
    SocSystem soc(SocConfig{}, std::make_unique<BuckRegulator>(),
                  Processor::make_test_chip());
    benchmark::DoNotOptimize(soc.run(dimming, ctrl, Seconds(30e-3)));
  }
}
BENCHMARK(BM_SprintTransient)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  return hemp::bench::run(argc, argv);
}
