#include "fleet/scenario.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace hemp {
namespace {

TEST(FleetScenario, DefaultsValidate) {
  FleetScenario s;
  EXPECT_NO_THROW(s.validate());
}

TEST(FleetScenario, ParsesFullDescription) {
  const FleetScenario s = FleetScenario::from_string(R"(
# fleet smoke scenario
name = smoke
nodes = 12
seed = 99
day_length_s = 0.1        # compressed day
time_step_us = 10
waveform_interval_us = 500
trace = clouds
shared_trace = true
pv_scale_min = 0.8
pv_scale_max = 1.2
solar_cap_min_uf = 33
solar_cap_max_uf = 68
vdd_cap_uf = 4.7
corner_ss = 0.1
corner_tt = 0.8
corner_ff = 0.1
temperature_mean_c = 30
temperature_sigma_c = 4
min_energy_fraction = 0.5
job_cycles = 1e6
job_period_ms = 20
job_deadline_ms = 5
trace_coarsen_eps = 2.5e-3
)");
  EXPECT_EQ(s.name, "smoke");
  EXPECT_EQ(s.nodes, 12);
  EXPECT_EQ(s.seed, 99u);
  EXPECT_DOUBLE_EQ(s.day_length.value(), 0.1);
  EXPECT_DOUBLE_EQ(s.time_step.value(), 10e-6);
  EXPECT_DOUBLE_EQ(s.waveform_interval.value(), 500e-6);
  EXPECT_EQ(s.trace_kind, TraceKind::kClouds);
  EXPECT_TRUE(s.shared_trace);
  EXPECT_DOUBLE_EQ(s.pv_scale_max, 1.2);
  EXPECT_DOUBLE_EQ(s.solar_cap_min.value(), 33e-6);
  EXPECT_DOUBLE_EQ(s.vdd_cap.value(), 4.7e-6);
  EXPECT_DOUBLE_EQ(s.corner_weights[1], 0.8);
  EXPECT_DOUBLE_EQ(s.temperature_mean_c, 30.0);
  EXPECT_DOUBLE_EQ(s.min_energy_fraction, 0.5);
  EXPECT_DOUBLE_EQ(s.job_cycles, 1e6);
  EXPECT_DOUBLE_EQ(s.job_period.value(), 0.02);
  EXPECT_DOUBLE_EQ(s.job_deadline.value(), 0.005);
  EXPECT_DOUBLE_EQ(s.trace_coarsen_eps, 2.5e-3);
}

TEST(FleetScenario, CoarsenEpsDefaultsOnAndRejectsNegative) {
  EXPECT_DOUBLE_EQ(FleetScenario{}.trace_coarsen_eps, 1e-3);

  FleetScenario off = FleetScenario::from_string("trace_coarsen_eps = 0\n");
  EXPECT_NO_THROW(off.validate());

  FleetScenario bad;
  bad.trace_coarsen_eps = -1e-6;
  EXPECT_THROW(bad.validate(), ModelError);
}

TEST(FleetScenario, UnknownKeyThrows) {
  EXPECT_THROW(FleetScenario::from_string("nodez = 10\n"), ModelError);
}

TEST(FleetScenario, MalformedLineThrows) {
  EXPECT_THROW(FleetScenario::from_string("nodes 10\n"), ModelError);
  EXPECT_THROW(FleetScenario::from_string("nodes = ten\n"), ModelError);
  EXPECT_THROW(FleetScenario::from_string("shared_trace = maybe\n"), ModelError);
}

TEST(FleetScenario, NodesAndSeedTakeWholeIntegersOnly) {
  for (const char* bad : {"2.7", "1e3", "nan", "inf", "abc", "", "+4",
                          "99999999999"}) {
    SCOPED_TRACE(bad);
    FleetScenario s;
    EXPECT_THROW(s.set("nodes", bad), ModelError);
    EXPECT_EQ(s.nodes, FleetScenario{}.nodes);
  }
  for (const char* bad : {"-1", "3.5", "nan", "18446744073709551616", "0x10"}) {
    SCOPED_TRACE(bad);
    FleetScenario s;
    EXPECT_THROW(s.set("seed", bad), ModelError);
    EXPECT_EQ(s.seed, FleetScenario{}.seed);
  }
  EXPECT_THROW(FleetScenario::from_string("nodes = 2.7\n"), ModelError);
  EXPECT_THROW(FleetScenario::from_string("seed = -1\n"), ModelError);
  // A negative node count parses and fails validation.
  EXPECT_THROW(FleetScenario::from_string("nodes = -3\n"), ModelError);
  EXPECT_EQ(FleetScenario::from_string("seed = 18446744073709551615\n").seed,
            18446744073709551615ULL);
}

TEST(FleetScenario, NumbersMustBeFinite) {
  // An infinite capacitance or job size would otherwise run to a hash.
  for (const char* key : {"vdd_cap_uf", "solar_cap_max_uf", "job_cycles",
                          "day_length_s", "trace_coarsen_eps"}) {
    for (const char* bad : {"inf", "-inf", "nan", "1e400"}) {
      SCOPED_TRACE(std::string(key) + " = " + bad);
      FleetScenario s;
      EXPECT_THROW(s.set(key, bad), ModelError);
    }
  }
}

TEST(FleetScenario, SetOverridesOneFieldLikeTheFile) {
  FleetScenario s;
  s.set("nodes", "5");
  s.set("seed", "0");
  s.set("trace_coarsen_eps", "0");
  s.set("job_period_ms", "20");
  EXPECT_EQ(s.nodes, 5);
  EXPECT_EQ(s.seed, 0u);
  EXPECT_EQ(s.trace_coarsen_eps, 0.0);
  EXPECT_DOUBLE_EQ(s.job_period.value(), 0.02);
  EXPECT_NO_THROW(s.validate());
  EXPECT_THROW(s.set("nodez", "5"), ModelError);
  EXPECT_THROW(s.set("trace_coarsen_eps", "abc"), ModelError);
  s.set("trace_coarsen_eps", "-1");  // set parses; validate() judges
  EXPECT_THROW(s.validate(), ModelError);
}

TEST(FleetScenario, TraceKindRoundTrips) {
  for (const auto kind :
       {TraceKind::kConstant, TraceKind::kDiurnal, TraceKind::kClouds,
        TraceKind::kIndoor, TraceKind::kCsv}) {
    EXPECT_EQ(trace_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(trace_kind_from_string("sunny"), ModelError);
}

TEST(FleetScenario, ValidationCatchesBadRanges) {
  FleetScenario s;
  s.nodes = 0;
  EXPECT_THROW(s.validate(), ModelError);

  s = FleetScenario{};
  s.trace_kind = TraceKind::kCsv;  // no trace_csv path
  EXPECT_THROW(s.validate(), ModelError);

  s = FleetScenario{};
  s.pv_scale_min = 1.5;
  s.pv_scale_max = 1.0;
  EXPECT_THROW(s.validate(), ModelError);

  s = FleetScenario{};
  s.corner_weights = {0.0, 0.0, 0.0};
  EXPECT_THROW(s.validate(), ModelError);

  s = FleetScenario{};
  s.min_energy_fraction = 1.5;
  EXPECT_THROW(s.validate(), ModelError);

  s = FleetScenario{};
  s.job_cycles = 1e6;
  s.job_period = Seconds(0.0);
  EXPECT_THROW(s.validate(), ModelError);

  s = FleetScenario{};
  s.waveform_interval = Seconds(1e-6);  // below time_step
  EXPECT_THROW(s.validate(), ModelError);
}

/// The ModelError message `s.validate()` throws, or "" when it passes.
std::string validation_error(const FleetScenario& s) {
  try {
    s.validate();
  } catch (const ModelError& e) {
    return e.what();
  }
  return "";
}

TEST(FleetScenario, RejectsAbsurdTickAndSampleCounts) {
  // 1e-6 us steps and samples over a 0.01 s day would ask for 1e10 of each:
  // the reference engine used to die reserving the waveform.
  FleetScenario s = FleetScenario::from_string(
      "day_length_s = 0.01\n"
      "time_step_us = 10\n"
      "waveform_interval_us = 10\n");
  s.set("time_step_us", "1e-6");
  s.set("waveform_interval_us", "1e-6");
  EXPECT_NE(validation_error(s).find("time_step_us"), std::string::npos);

  // 1e7 ticks are fine; 2e6 waveform samples are not.
  s.set("time_step_us", "0.001");
  s.set("waveform_interval_us", "1");
  EXPECT_EQ(validation_error(s), "");
  s.set("waveform_interval_us", "0.005");
  EXPECT_NE(validation_error(s).find("waveform_interval_us"), std::string::npos);

  // Exactly at the caps: 1e8 ticks and 1e6 samples of a one-second day.
  s = FleetScenario{};
  s.day_length = Seconds(1.0);
  s.time_step = Seconds(1e-8);
  s.waveform_interval = Seconds(1e-6);
  EXPECT_EQ(validation_error(s), "");
}

TEST(FleetScenario, JobsCanBeDisabled) {
  FleetScenario s;
  s.job_cycles = 0.0;
  s.job_period = Seconds(0.0);  // ignored when the workload is off
  EXPECT_NO_THROW(s.validate());
}

}  // namespace
}  // namespace hemp
