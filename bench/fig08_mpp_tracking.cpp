// Fig. 8 — time-based MPP tracking: when the light dims, the solar node falls
// through the comparator thresholds; the fall time gives the new input power
// (Eq. 7), a LUT gives the new MPP voltage, and DVFS retargets.
//
// Prints the simulated Vsolar(t) waveform around the dimming event (the
// paper's Cadence waveform), the Eq. 7 estimate vs ground truth, and dumps
// the full record to fig08_waveform.csv.
#include <memory>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "core/mpp_tracker.hpp"
#include "regulator/switched_cap.hpp"
#include "sim/soc_system.hpp"

namespace {

using namespace hemp;
using namespace hemp::literals;

void print_figure() {
  bench::header("Fig. 8", "MPP tracking via threshold-crossing time");
  const bench::ScRig rig;

  MppTrackerParams params;
  MppTrackingController ctrl(rig.model, params);
  SocConfig cfg;
  SocSystem soc(cfg, std::make_unique<SwitchedCapRegulator>(),
                Processor::make_test_chip());

  const Seconds dim_at = 80.0_ms;
  const double g_before = 1.0, g_after = 0.3;
  const SimResult r = soc.run(IrradianceTrace::step(g_before, g_after, dim_at),
                              ctrl, 200.0_ms);
  r.waveform.write_csv(hemp::output_path("fig08_waveform.csv"));

  bench::section("solar node waveform around the dimming event");
  std::printf("%10s %10s %10s %10s\n", "t (ms)", "Vsolar", "Vdd", "f (MHz)");
  for (double t_ms = 75.0; t_ms <= 120.0 + 1e-9; t_ms += 2.5) {
    const Seconds ts(t_ms * 1e-3);
    std::printf("%10.2f %10.3f %10.3f %10.0f\n", t_ms,
                r.waveform.value_at("v_solar", ts), r.waveform.value_at("v_dd", ts),
                r.waveform.value_at("frequency_hz", ts) / 1e6);
  }

  bench::section("Eq. 7 estimate vs ground truth");
  const double p_true = rig.cell.power(Volts(0.95), g_after).value();
  const MaxPowerPoint mpp_new = find_mpp(rig.cell, g_after);
  bench::report("retarget events after dimming", ">= 1 (Fig. 8 scheme)",
                bench::fmt("%.0f", static_cast<double>(ctrl.retarget_count())));
  if (ctrl.last_power_estimate()) {
    bench::report("estimated input power", bench::fmt("%.2f mW (true)", p_true * 1e3),
                  bench::fmt("%.2f mW", ctrl.last_power_estimate()->value() * 1e3));
  }
  bench::report("new MPP voltage target",
                bench::fmt("%.2f V (model MPP)", mpp_new.voltage.value()),
                bench::fmt("%.2f V", ctrl.target_voltage().value()));
  bench::report("final solar node voltage",
                bench::fmt("%.2f V (MPP)", mpp_new.voltage.value()),
                bench::fmt("%.2f V", r.final_state.v_solar.value()));
  const double capture =
      r.waveform.value_at("p_harvest_w", 199.0_ms) / mpp_new.power.value();
  bench::report("MPP capture after retarget", "operates around new MPP",
                bench::fmt("%.0f%% of Pmpp", capture * 100));
  std::printf("\n  full waveform written to out/fig08_waveform.csv\n");
}

void BM_Eq7Estimate(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimate_input_power(Watts(5e-3), Farads(47e-6),
                                                  Volts(1.0), Volts(0.9),
                                                  Seconds(5e-3)));
  }
}
BENCHMARK(BM_Eq7Estimate);

void BM_LutLookup(benchmark::State& state) {
  const PvCell cell = make_ixys_kxob22_cell();
  MppLut lut(cell, Volts(0.95));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lut.mpp_voltage_for(Watts(4e-3)));
  }
}
BENCHMARK(BM_LutLookup);

void BM_TrackingSimulation(benchmark::State& state) {
  const bench::ScRig rig;
  for (auto _ : state) {
    MppTrackingController ctrl(rig.model, MppTrackerParams{});
    SocSystem soc(SocConfig{}, std::make_unique<SwitchedCapRegulator>(),
                  Processor::make_test_chip());
    benchmark::DoNotOptimize(
        soc.run(IrradianceTrace::step(1.0, 0.3, Seconds(4e-3)), ctrl, Seconds(10e-3)));
  }
}
BENCHMARK(BM_TrackingSimulation)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  return hemp::bench::run(argc, argv);
}
