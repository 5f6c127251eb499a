// Minimal CSV reader/writer.  The writer dumps series that correspond to the
// paper's figures; the reader loads recorded traces (daylight logs, scenario
// series) back into memory for the trace and fleet layers.
#pragma once

#include <cstddef>
#include <fstream>
#include <string>
#include <vector>

namespace hemp {

/// Path under the conventional (git-ignored) `out/` directory for generated
/// CSVs; creates the directory on first use.  Benches and examples route all
/// waveform dumps through this so the repo root stays clean.
std::string output_path(const std::string& filename);

class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row.  Throws on I/O error.
  CsvWriter(std::string path, std::vector<std::string> columns);

  /// Append one row; must match the header width.  Values are written as
  /// "%.9g".
  void row(const std::vector<double>& values);

  /// Flush and close the file; throws ModelError if any write failed (a
  /// full disk, say).  Without it the destructor closes silently.
  void close();

  [[nodiscard]] std::size_t rows_written() const { return rows_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::size_t width_ = 0;
  std::size_t rows_ = 0;
};

/// An all-numeric CSV file loaded into memory: one header row naming the
/// columns, then rows of doubles.
struct CsvTable {
  std::vector<std::string> columns;
  std::vector<std::vector<double>> rows;  ///< rows[i][j] = row i, column j

  /// Index of a column by name; throws RangeError when absent.
  [[nodiscard]] std::size_t column_index(const std::string& name) const;
  /// Full series of one column.
  [[nodiscard]] std::vector<double> column(const std::string& name) const;
};

/// Parse `path` as a header + numeric rows.  Throws ModelError on a missing
/// file, an empty file, a non-numeric cell, or a ragged row.  Blank lines and
/// lines starting with '#' are skipped.
CsvTable read_csv(const std::string& path);

}  // namespace hemp
