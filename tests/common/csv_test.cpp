#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace hemp {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(CsvWriter, WritesHeaderAndRows) {
  const std::string path = temp_path("basic.csv");
  {
    CsvWriter w(path, {"a", "b"});
    w.row({1.0, 2.0});
    w.row({3.5, -4.0});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  const std::string content = slurp(path);
  EXPECT_EQ(content, "a,b\n1,2\n3.5,-4\n");
}

TEST(CsvWriter, RejectsRowWidthMismatch) {
  CsvWriter w(temp_path("width.csv"), {"a", "b", "c"});
  EXPECT_THROW(w.row({1.0}), ModelError);
}

TEST(CsvWriter, RejectsEmptyHeader) {
  EXPECT_THROW(CsvWriter(temp_path("empty.csv"), {}), ModelError);
}

TEST(CsvWriter, RejectsUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}), ModelError);
}

TEST(CsvWriter, PreservesPrecision) {
  const std::string path = temp_path("precision.csv");
  {
    CsvWriter w(path, {"v"});
    w.row({1.23456789e-6});
  }
  EXPECT_NE(slurp(path).find("1.23456789e-06"), std::string::npos);
}

TEST(CsvWriter, MatchesOstreamPrecision9Bytes) {
  // The writer formats with to_chars; the bytes must be exactly what
  // `ostream << setprecision(9)` (printf's "%.9g") writes, edge values too.
  using L = std::numeric_limits<double>;
  const std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 2.0 / 3.0, 1e-5, 1e-4,
      123456789.0, 999999999.0, 1e9, 1e9 + 1.0, 1234567890.0, 4294967296.0,
      9007199254740993.0, 1e15, 1e16, 1e21, 1e300, -1e300, 1e-300, -1e-300,
      L::max(), L::lowest(), L::min(), L::denorm_min(), -L::denorm_min(),
      2.2250738585072009e-308, 4.9406564584124654e-320, L::epsilon(),
      L::quiet_NaN(), -L::quiet_NaN(), L::infinity(), -L::infinity(),
      1.23456789e-6, 0.000123456789, 12345.6789012, 5e-324, 0.5, 1.5e-7};
  const std::string path = temp_path("to_chars.csv");
  std::ostringstream expect;
  expect << "v,neg\n" << std::setprecision(9);
  {
    CsvWriter w(path, {"v", "neg"});
    for (const double v : values) {
      w.row({v, -v});
      expect << v << ',' << -v << '\n';
    }
    w.close();
  }
  EXPECT_EQ(slurp(path), expect.str());
}

TEST(CsvWriter, WideRowsMatchOstreamBytes) {
  // Rows wider than the writer's stack buffer are flushed in pieces.
  std::vector<double> row;
  std::vector<std::string> cols;
  for (int i = 0; i < 600; ++i) {
    row.push_back(-1.2345678901234e-300 * (i + 1));
    std::string name = std::to_string(i);
    name.insert(name.begin(), 'c');
    cols.push_back(std::move(name));
  }
  const std::string path = temp_path("wide.csv");
  std::ostringstream expect;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    expect << (i ? "," : "") << cols[i];
  }
  expect << '\n' << std::setprecision(9);
  {
    CsvWriter w(path, cols);
    w.row(row);
    w.close();
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    expect << (i ? "," : "") << row[i];
  }
  expect << '\n';
  EXPECT_EQ(slurp(path), expect.str());
}

TEST(CsvWriter, CloseThrowsOnFullDisk) {
  // /dev/full accepts the open and fails every write with ENOSPC.
  CsvWriter w("/dev/full", {"a", "b"});
  for (int i = 0; i < 10; ++i) w.row({1.0 * i, 2.0});
  EXPECT_THROW(w.close(), ModelError);
}

TEST(CsvWriter, CloseSucceedsOnce) {
  CsvWriter w(temp_path("close.csv"), {"a"});
  w.row({1.0});
  EXPECT_NO_THROW(w.close());
  EXPECT_NO_THROW(w.close());
}

}  // namespace
}  // namespace hemp
