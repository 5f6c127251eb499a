#include "sim/waveform.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "common/error.hpp"

namespace hemp {
namespace {

using namespace hemp::literals;

Waveform make_ramp_record() {
  Waveform w({"v", "p"});
  for (int i = 0; i <= 10; ++i) {
    w.sample(Seconds(i * 1e-3), {1.0 - 0.05 * i, 2.0e-3});
  }
  return w;
}

TEST(Waveform, ChannelLookup) {
  const Waveform w = make_ramp_record();
  EXPECT_EQ(w.channel_count(), 2u);
  EXPECT_EQ(w.sample_count(), 11u);
  EXPECT_EQ(w.channel_index("v"), 0u);
  EXPECT_EQ(w.channel_index("p"), 1u);
  EXPECT_THROW((void)w.channel_index("nope"), RangeError);
}

TEST(Waveform, ValueAtInterpolates) {
  const Waveform w = make_ramp_record();
  EXPECT_NEAR(w.value_at("v", 0.5_ms), 0.975, 1e-12);
  EXPECT_NEAR(w.value_at("v", 5.0_ms), 0.75, 1e-12);
  // Clamps outside the record.
  EXPECT_NEAR(w.value_at("v", Seconds(-1.0)), 1.0, 1e-12);
  EXPECT_NEAR(w.value_at("v", 1.0_s), 0.5, 1e-12);
}

TEST(Waveform, FirstCrossingFalling) {
  const Waveform w = make_ramp_record();
  const double t = w.first_crossing("v", 0.8, /*falling=*/true);
  EXPECT_NEAR(t, 4e-3, 1e-12);  // v hits 0.8 at i=4
}

TEST(Waveform, FirstCrossingRisingAbsentIsNaN) {
  const Waveform w = make_ramp_record();
  EXPECT_TRUE(std::isnan(w.first_crossing("v", 0.8, /*falling=*/false)));
}

TEST(Waveform, MinMaxMean) {
  const Waveform w = make_ramp_record();
  EXPECT_NEAR(w.minimum("v"), 0.5, 1e-12);
  EXPECT_NEAR(w.maximum("v"), 1.0, 1e-12);
  EXPECT_NEAR(w.mean("v"), 0.75, 1e-12);
}

TEST(Waveform, IntegralOfConstantPower) {
  const Waveform w = make_ramp_record();
  // 2 mW over 10 ms = 20 uJ.
  EXPECT_NEAR(w.integral("p"), 20e-6, 1e-15);
}

TEST(Waveform, RejectsWidthMismatchAndTimeTravel) {
  Waveform w({"a"});
  w.sample(1.0_ms, {1.0});
  EXPECT_THROW(w.sample(2.0_ms, {1.0, 2.0}), ModelError);
  EXPECT_THROW(w.sample(0.5_ms, {1.0}), RangeError);
}

TEST(Waveform, CsvDumpThrowsOnFullDisk) {
  EXPECT_THROW(make_ramp_record().write_csv("/dev/full"), ModelError);
}

TEST(Waveform, CsvDumpRoundTrip) {
  const Waveform w = make_ramp_record();
  const std::string path = std::string(::testing::TempDir()) + "/wave.csv";
  w.write_csv(path);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "time_s,v,p");
  int rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 11);
}

TEST(Waveform, RequiresAtLeastOneChannel) {
  EXPECT_THROW(Waveform({}), ModelError);
}

}  // namespace
}  // namespace hemp
