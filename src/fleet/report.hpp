// Fleet-level aggregation: reduce per-node results into population metrics.
//
// The paper proves its control schemes on one die under one lamp; a fleet
// run asks the production question — across a *population* of heterogeneous
// nodes under diverse light, what do the distributions of forward progress,
// brownouts, deadline hits, MPPT quality, and energy per job look like?
// Every metric is summarized with mean and percentiles, and the whole
// population reduces to a single FNV-1a hash over the per-node result bits:
// two runs (serial or parallel, today or next year) agree iff every double
// in every node result is bit-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "fleet/scenario.hpp"

namespace hemp {

/// Everything measured on one node over its simulated day.
struct NodeResult {
  NodeSample sample;
  double cycles = 0.0;  ///< forward progress
  int brownouts = 0;    ///< undervoltage reboots
  int timing_faults = 0;
  int jobs_submitted = 0;
  int jobs_completed = 0;
  int jobs_missed = 0;
  double deadline_hit_rate = 1.0;  ///< 1.0 when no jobs were adjudicated
  /// Mean relative MPP-voltage error while tracking under the regulator.
  double mppt_error = 0.0;
  Joules harvested{0.0};
  Joules delivered{0.0};
  Seconds halted{0.0};
  Joules energy_per_job{0.0};  ///< 0 when no job completed
};

/// Order statistics of one metric across the fleet.
struct MetricSummary {
  double mean = 0.0;
  double min = 0.0;
  double p05 = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

/// Summarize `values` (must be non-empty).  Percentiles use the
/// nearest-rank method on a sorted copy — deterministic, no interpolation.
MetricSummary summarize(std::vector<double> values);

struct FleetReport {
  std::string scenario_name;
  int nodes = 0;
  std::uint64_t seed = 0;
  Seconds day_length{0.0};

  // Population totals.
  double total_cycles = 0.0;
  long total_brownouts = 0;
  long total_jobs_submitted = 0;
  long total_jobs_completed = 0;
  long total_jobs_missed = 0;
  Joules total_harvested{0.0};
  Joules total_delivered{0.0};

  // Distributions.
  MetricSummary cycles;
  MetricSummary brownouts;
  MetricSummary deadline_hit_rate;
  MetricSummary mppt_error;
  MetricSummary energy_per_job;

  /// FNV-1a over every node result in index order; the determinism witness.
  std::uint64_t summary_hash = 0;

  std::vector<NodeResult> node_results;
};

/// Reduce per-node results (in node-index order) into a FleetReport.
FleetReport aggregate(const FleetScenario& scenario,
                      std::vector<NodeResult> results);

/// FNV-1a hash over the bit patterns of every per-node metric, in index
/// order.  Bit-identical results <=> equal hashes.
std::uint64_t fleet_hash(const std::vector<NodeResult>& results);

/// "0x"-prefixed lowercase hex rendering of a hash.
std::string hash_hex(std::uint64_t hash);

/// Write the aggregate report as JSON (no node array).
void write_summary_json(const FleetReport& report, const std::string& path);

/// Write one CSV row per node (the raw distribution behind the summary).
void write_node_csv(const FleetReport& report, const std::string& path);

}  // namespace hemp
