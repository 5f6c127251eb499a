// Shared helpers for the per-figure bench binaries.
//
// Every binary reproduces one figure of the paper: it prints the figure's
// series (the same rows a plotting script would consume), prints a
// paper-vs-measured comparison for the headline numbers, and registers
// google-benchmark timings for the computational kernels involved.
//
// The helpers here deduplicate the per-binary boilerplate: the reference
// cell/regulator/processor rig every figure builds, the sweep-and-print
// pattern (computed in parallel through sim/sweep.hpp, printed in order),
// and CSV dumps routed to out/.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "core/system_model.hpp"
#include "processor/processor.hpp"
#include "regulator/switched_cap.hpp"
#include "sim/sweep.hpp"

namespace hemp::bench {

/// The reference system every figure is measured on: the IXYS KXOB22 cell,
/// one regulator of the caller's choice, and the paper's 65 nm test chip.
/// Owns all three subsystems so the SystemModel's views stay valid.
template <typename Reg>
struct Rig {
  PvCell cell = make_ixys_kxob22_cell();
  Reg reg{};
  Processor proc = Processor::make_test_chip();
  SystemModel model{cell, reg, proc};
};

/// The most common configuration (SC regulator, Fig. 6/7/8 and ablations).
using ScRig = Rig<SwitchedCapRegulator>;

inline void header(const char* fig, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s: %s\n", fig, title);
  std::printf("================================================================\n");
}

inline void section(const char* name) { std::printf("\n--- %s ---\n", name); }

/// One paper-vs-measured row for EXPERIMENTS.md.
inline void report(const char* metric, const std::string& paper,
                   const std::string& measured) {
  std::printf("  %-46s paper: %-18s measured: %s\n", metric, paper.c_str(),
              measured.c_str());
}

inline std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

/// Sweep-and-print: evaluate `row_of` over `xs` on the shared thread pool
/// (bit-identical to the serial loop; see sim/sweep.hpp), then print the
/// returned rows in input order.  `row_of` must return the fully formatted
/// line (without trailing newline) and be safe to run concurrently.
template <typename T, typename F>
void print_sweep_rows(const std::vector<T>& xs, F&& row_of) {
  const std::vector<std::string> rows = sweep_map(xs, std::forward<F>(row_of));
  for (const std::string& row : rows) std::printf("%s\n", row.c_str());
}

/// Dump parallel columns to out/<filename> and tell the reader where.
inline void write_series_csv(const std::string& filename,
                             std::vector<std::string> columns,
                             const std::vector<std::vector<double>>& rows) {
  CsvWriter csv(output_path(filename), std::move(columns));
  for (const auto& row : rows) csv.row(row);
  csv.close();
  std::printf("\n  series written to out/%s (%zu rows)\n", filename.c_str(),
              csv.rows_written());
}

/// Prints the figure body (given as a callback) and then runs benchmarks.
inline int run(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace hemp::bench
