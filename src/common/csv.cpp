#include "common/csv.hpp"

#include <array>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace hemp {

std::string output_path(const std::string& filename) {
  HEMP_REQUIRE(!filename.empty(), "output_path: empty filename");
  const std::filesystem::path dir{"out"};
  std::filesystem::create_directories(dir);
  return (dir / filename).string();
}

CsvWriter::CsvWriter(std::string path, std::vector<std::string> columns)
    : path_(std::move(path)), out_(path_), width_(columns.size()) {
  HEMP_REQUIRE(!columns.empty(), "CsvWriter: need at least one column");
  if (!out_) throw ModelError("CsvWriter: cannot open " + path);
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i) out_ << ',';
    out_ << columns[i];
  }
  out_ << '\n';
}

void CsvWriter::row(const std::vector<double>& values) {
  HEMP_REQUIRE(values.size() == width_, "CsvWriter: row width mismatch");
  // Each cell is "%.9g", the text `ostream << setprecision(9)` writes, built
  // in a stack buffer and handed to the stream in one write per row (one per
  // buffer-full for rows too wide to fit).
  constexpr std::size_t kCellMax = 32;  // ",-1.23456789e-308" is 17 chars
  std::array<char, 4096> buf;
  std::size_t len = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (buf.size() - len < kCellMax) {
      out_.write(buf.data(), static_cast<std::streamsize>(len));
      len = 0;
    }
    if (i) buf[len++] = ',';
    const auto res = std::to_chars(buf.data() + len, buf.data() + buf.size(),
                                   values[i], std::chars_format::general, 9);
    len = static_cast<std::size_t>(res.ptr - buf.data());
  }
  buf[len++] = '\n';
  out_.write(buf.data(), static_cast<std::streamsize>(len));
  ++rows_;
}

void CsvWriter::close() {
  if (out_.is_open()) out_.close();
  if (out_.fail()) throw ModelError("CsvWriter: write failed for " + path_);
}

namespace {

std::vector<std::string> split_cells(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream in(line);
  while (std::getline(in, cell, ',')) {
    // Trim surrounding whitespace so hand-edited traces parse.
    const auto first = cell.find_first_not_of(" \t\r");
    const auto last = cell.find_last_not_of(" \t\r");
    cells.push_back(first == std::string::npos
                        ? std::string()
                        : cell.substr(first, last - first + 1));
  }
  if (!line.empty() && line.back() == ',') cells.emplace_back();
  return cells;
}

}  // namespace

std::size_t CsvTable::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return i;
  }
  throw RangeError("CsvTable: no column named '" + name + "'");
}

std::vector<double> CsvTable::column(const std::string& name) const {
  const std::size_t j = column_index(name);
  std::vector<double> out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(row[j]);
  return out;
}

CsvTable read_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ModelError("read_csv: cannot open " + path);

  CsvTable table;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (table.columns.empty()) {
      table.columns = split_cells(line);
      HEMP_REQUIRE(!table.columns.empty(), "read_csv: empty header in " + path);
      continue;
    }
    const std::vector<std::string> cells = split_cells(line);
    if (cells.size() != table.columns.size()) {
      throw ModelError("read_csv: " + path + ":" + std::to_string(lineno) +
                       ": expected " + std::to_string(table.columns.size()) +
                       " cells, got " + std::to_string(cells.size()));
    }
    std::vector<double> row;
    row.reserve(cells.size());
    for (const std::string& cell : cells) {
      char* end = nullptr;
      const double v = std::strtod(cell.c_str(), &end);
      if (cell.empty() || end != cell.c_str() + cell.size()) {
        throw ModelError("read_csv: " + path + ":" + std::to_string(lineno) +
                         ": non-numeric cell '" + cell + "'");
      }
      row.push_back(v);
    }
    table.rows.push_back(std::move(row));
  }
  if (table.columns.empty()) throw ModelError("read_csv: empty file " + path);
  return table;
}

}  // namespace hemp
