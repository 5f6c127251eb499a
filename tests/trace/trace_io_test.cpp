#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "harvester/light_environment.hpp"
#include "trace/record.hpp"

namespace hemp {
namespace {

using namespace hemp::literals;

/// Writes `content` to a temp file and removes it on destruction.
// ctest runs each test of this binary in its own process, in parallel, so
// each test writes its own file: one shared path let a test's destructor
// delete the file another test was reading.
std::string test_csv_name() {
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  return std::string(info->test_suite_name()) + "_" + info->name() + ".csv";
}

struct TempCsv {
  std::string path;
  explicit TempCsv(const std::string& content,
                   const std::string& name = test_csv_name())
      : path(output_path(name)) {
    std::ofstream out(path);
    out << content;
  }
  ~TempCsv() { std::remove(path.c_str()); }
};

TEST(ReadCsv, ParsesHeaderAndRows) {
  TempCsv f("time_s,irradiance\n0.0,0.5\n1.0,0.75\n");
  const CsvTable t = read_csv(f.path);
  ASSERT_EQ(t.columns.size(), 2u);
  EXPECT_EQ(t.columns[0], "time_s");
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(t.rows[1][1], 0.75);
  EXPECT_EQ(t.column_index("irradiance"), 1u);
  EXPECT_THROW((void)t.column_index("missing"), RangeError);
  EXPECT_DOUBLE_EQ(t.column("time_s")[1], 1.0);
}

TEST(ReadCsv, SkipsCommentsAndBlankLines) {
  TempCsv f("# recorded 2026-08-07\n\ntime_s,irradiance\n0,0.1\n\n# gap\n1,0.2\n");
  const CsvTable t = read_csv(f.path);
  EXPECT_EQ(t.rows.size(), 2u);
}

TEST(ReadCsv, RejectsMissingFile) {
  EXPECT_THROW(read_csv("/nonexistent/no_such.csv"), ModelError);
}

TEST(ReadCsv, RejectsNonNumericCell) {
  TempCsv f("time_s,irradiance\n0.0,cloudy\n");
  EXPECT_THROW(read_csv(f.path), ModelError);
}

TEST(ReadCsv, RejectsRaggedRow) {
  TempCsv f("time_s,irradiance\n0.0\n");
  EXPECT_THROW(read_csv(f.path), ModelError);
}

TEST(ReadCsv, RejectsEmptyFile) {
  TempCsv f("");
  EXPECT_THROW(read_csv(f.path), ModelError);
}

TEST(FromCsv, InterpolatesBetweenSamples) {
  TempCsv f("time_s,irradiance\n0.0,0.0\n2.0,1.0\n");
  const IrradianceTrace trace = IrradianceTrace::from_csv(f.path);
  EXPECT_DOUBLE_EQ(trace.at(Seconds(1.0)), 0.5);
  // Clamped beyond the recorded span.
  EXPECT_DOUBLE_EQ(trace.at(Seconds(-1.0)), 0.0);
  EXPECT_DOUBLE_EQ(trace.at(Seconds(9.0)), 1.0);
}

TEST(FromCsv, ClampsIrradianceIntoUnitRange) {
  TempCsv f("time_s,irradiance\n0.0,-0.3\n1.0,1.7\n");
  const IrradianceTrace trace = IrradianceTrace::from_csv(f.path);
  EXPECT_DOUBLE_EQ(trace.at(Seconds(0.0)), 0.0);
  EXPECT_DOUBLE_EQ(trace.at(Seconds(1.0)), 1.0);
}

TEST(FromCsv, IgnoresExtraColumns) {
  TempCsv f("temp_c,time_s,irradiance\n21,0.0,0.2\n22,1.0,0.4\n");
  const IrradianceTrace trace = IrradianceTrace::from_csv(f.path);
  EXPECT_DOUBLE_EQ(trace.at(Seconds(1.0)), 0.4);
}

TEST(FromCsv, RejectsNonMonotonicTime) {
  TempCsv f("time_s,irradiance\n0.0,0.1\n2.0,0.2\n1.0,0.3\n");
  EXPECT_THROW(IrradianceTrace::from_csv(f.path), ModelError);
  TempCsv g("time_s,irradiance\n0.0,0.1\n0.0,0.2\n", "trace_io_dup.csv");
  EXPECT_THROW(IrradianceTrace::from_csv(g.path), ModelError);
}

TEST(FromCsv, RejectsMissingColumns) {
  TempCsv f("t,g\n0.0,0.1\n1.0,0.2\n");
  EXPECT_THROW(IrradianceTrace::from_csv(f.path), RangeError);
}

TEST(FromCsv, RejectsSingleSample) {
  TempCsv f("time_s,irradiance\n0.0,0.1\n");
  EXPECT_THROW(IrradianceTrace::from_csv(f.path), ModelError);
}

TEST(RecordCsv, RoundTripsThroughFromCsv) {
  const IrradianceTrace original =
      IrradianceTrace::ramp(0.1, 0.9, Seconds(0.0), Seconds(1.0));
  const std::string path = output_path("trace_io_roundtrip.csv");
  const std::size_t rows =
      write_trace_csv(original, Seconds(1.0), Seconds(0.01), path);
  EXPECT_EQ(rows, 101u);
  const IrradianceTrace replayed = IrradianceTrace::from_csv(path);
  for (double t = 0.0; t <= 1.0; t += 0.037) {
    EXPECT_NEAR(replayed.at(Seconds(t)), original.at(Seconds(t)), 1e-9);
  }
  std::remove(path.c_str());
}

TEST(RecordCsv, ClampsFinalSampleOntoDuration) {
  const IrradianceTrace trace = IrradianceTrace::constant(0.5);
  const std::string path = output_path("trace_io_clamp.csv");
  // 0.25 / 0.1 is not integral: last sample must land exactly on 0.25.
  write_trace_csv(trace, Seconds(0.25), Seconds(0.1), path);
  const CsvTable t = read_csv(path);
  EXPECT_DOUBLE_EQ(t.rows.back()[0], 0.25);
  EXPECT_NO_THROW(IrradianceTrace::from_csv(path));
  std::remove(path.c_str());
}

TEST(RecordCsv, ThrowsOnFullDisk) {
  const IrradianceTrace trace = IrradianceTrace::constant(0.5);
  EXPECT_THROW(write_trace_csv(trace, Seconds(1.0), Seconds(0.1), "/dev/full"),
               ModelError);
}

TEST(RecordCsv, ValidatesArguments) {
  const IrradianceTrace trace = IrradianceTrace::constant(0.5);
  EXPECT_THROW(
      write_trace_csv(trace, Seconds(0.0), Seconds(0.1), output_path("x.csv")),
      ModelError);
  EXPECT_THROW(
      write_trace_csv(trace, Seconds(1.0), Seconds(2.0), output_path("x.csv")),
      ModelError);
}

}  // namespace
}  // namespace hemp
