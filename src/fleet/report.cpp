#include "fleet/report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/csv.hpp"
#include "common/error.hpp"

namespace hemp {

MetricSummary summarize(std::vector<double> values) {
  HEMP_REQUIRE(!values.empty(), "summarize: no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // Nearest-rank percentile: ceil(p * n) converted to a zero-based index.
  const auto rank = [&](double p) {
    const std::size_t r = static_cast<std::size_t>(p * static_cast<double>(n) + 0.5);
    return values[std::min(n - 1, r > 0 ? r - 1 : 0)];
  };
  MetricSummary s;
  double sum = 0.0;
  for (const double v : values) sum += v;
  s.mean = sum / static_cast<double>(n);
  s.min = values.front();
  s.p05 = rank(0.05);
  s.p50 = rank(0.50);
  s.p95 = rank(0.95);
  s.max = values.back();
  return s;
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
}

void fnv_mix(std::uint64_t& h, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  fnv_mix(h, bits);
}

}  // namespace

std::uint64_t fleet_hash(const std::vector<NodeResult>& results) {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(results.size()));
  for (const NodeResult& r : results) {
    fnv_mix(h, static_cast<std::uint64_t>(r.sample.index));
    fnv_mix(h, r.sample.pv_scale);
    fnv_mix(h, r.sample.solar_capacitance.value());
    fnv_mix(h, static_cast<std::uint64_t>(r.sample.conditions.corner));
    fnv_mix(h, r.sample.conditions.temperature_c);
    fnv_mix(h, static_cast<std::uint64_t>(r.sample.min_energy));
    fnv_mix(h, r.sample.job_phase.value());
    fnv_mix(h, r.cycles);
    fnv_mix(h, static_cast<std::uint64_t>(r.brownouts));
    fnv_mix(h, static_cast<std::uint64_t>(r.timing_faults));
    fnv_mix(h, static_cast<std::uint64_t>(r.jobs_submitted));
    fnv_mix(h, static_cast<std::uint64_t>(r.jobs_completed));
    fnv_mix(h, static_cast<std::uint64_t>(r.jobs_missed));
    fnv_mix(h, r.deadline_hit_rate);
    fnv_mix(h, r.mppt_error);
    fnv_mix(h, r.harvested.value());
    fnv_mix(h, r.delivered.value());
    fnv_mix(h, r.halted.value());
    fnv_mix(h, r.energy_per_job.value());
  }
  return h;
}

std::string hash_hex(std::uint64_t hash) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

FleetReport aggregate(const FleetScenario& scenario,
                      std::vector<NodeResult> results) {
  HEMP_REQUIRE(!results.empty(), "aggregate: no node results");
  FleetReport report;
  report.scenario_name = scenario.name;
  report.nodes = static_cast<int>(results.size());
  report.seed = scenario.seed;
  report.day_length = scenario.day_length;

  std::vector<double> cycles, brownouts, hit_rate, mppt, epj;
  cycles.reserve(results.size());
  brownouts.reserve(results.size());
  hit_rate.reserve(results.size());
  mppt.reserve(results.size());
  epj.reserve(results.size());
  for (const NodeResult& r : results) {
    report.total_cycles += r.cycles;
    report.total_brownouts += r.brownouts;
    report.total_jobs_submitted += r.jobs_submitted;
    report.total_jobs_completed += r.jobs_completed;
    report.total_jobs_missed += r.jobs_missed;
    report.total_harvested += r.harvested;
    report.total_delivered += r.delivered;
    cycles.push_back(r.cycles);
    brownouts.push_back(static_cast<double>(r.brownouts));
    hit_rate.push_back(r.deadline_hit_rate);
    mppt.push_back(r.mppt_error);
    epj.push_back(r.energy_per_job.value());
  }
  report.cycles = summarize(std::move(cycles));
  report.brownouts = summarize(std::move(brownouts));
  report.deadline_hit_rate = summarize(std::move(hit_rate));
  report.mppt_error = summarize(std::move(mppt));
  report.energy_per_job = summarize(std::move(epj));
  report.summary_hash = fleet_hash(results);
  report.node_results = std::move(results);
  return report;
}

namespace {

void write_metric(std::ofstream& out, const char* name, const MetricSummary& m,
                  bool last = false) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "    \"%s\": {\"mean\": %.17g, \"min\": %.17g, \"p05\": %.17g, "
                "\"p50\": %.17g, \"p95\": %.17g, \"max\": %.17g}%s\n",
                name, m.mean, m.min, m.p05, m.p50, m.p95, m.max,
                last ? "" : ",");
  out << buf;
}

}  // namespace

void write_summary_json(const FleetReport& report, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw ModelError("write_summary_json: cannot open " + path);
  char buf[512];
  out << "{\n";
  out << "  \"scenario\": \"" << report.scenario_name << "\",\n";
  out << "  \"nodes\": " << report.nodes << ",\n";
  out << "  \"seed\": " << report.seed << ",\n";
  std::snprintf(buf, sizeof buf, "  \"day_length_s\": %.17g,\n",
                report.day_length.value());
  out << buf;
  out << "  \"summary_hash\": \"" << hash_hex(report.summary_hash) << "\",\n";
  std::snprintf(buf, sizeof buf,
                "  \"totals\": {\"cycles\": %.17g, \"brownouts\": %ld, "
                "\"jobs_submitted\": %ld, \"jobs_completed\": %ld, "
                "\"jobs_missed\": %ld, \"harvested_j\": %.17g, "
                "\"delivered_j\": %.17g},\n",
                report.total_cycles, report.total_brownouts,
                report.total_jobs_submitted, report.total_jobs_completed,
                report.total_jobs_missed, report.total_harvested.value(),
                report.total_delivered.value());
  out << buf;
  out << "  \"metrics\": {\n";
  write_metric(out, "cycles", report.cycles);
  write_metric(out, "brownouts", report.brownouts);
  write_metric(out, "deadline_hit_rate", report.deadline_hit_rate);
  write_metric(out, "mppt_error", report.mppt_error);
  write_metric(out, "energy_per_job_j", report.energy_per_job, /*last=*/true);
  out << "  }\n}\n";
  out.close();  // flush before the check, so a failed final write is seen
  if (!out) throw ModelError("write_summary_json: write failed for " + path);
}

void write_node_csv(const FleetReport& report, const std::string& path) {
  CsvWriter csv(path,
                {"node", "pv_scale", "solar_cap_f", "corner", "temperature_c",
                 "min_energy", "cycles", "brownouts", "timing_faults",
                 "jobs_submitted", "jobs_completed", "jobs_missed",
                 "deadline_hit_rate", "mppt_error", "harvested_j",
                 "delivered_j", "halted_s", "energy_per_job_j"});
  for (const NodeResult& r : report.node_results) {
    csv.row({static_cast<double>(r.sample.index), r.sample.pv_scale,
             r.sample.solar_capacitance.value(),
             static_cast<double>(static_cast<int>(r.sample.conditions.corner)),
             r.sample.conditions.temperature_c,
             static_cast<double>(r.sample.min_energy), r.cycles,
             static_cast<double>(r.brownouts),
             static_cast<double>(r.timing_faults),
             static_cast<double>(r.jobs_submitted),
             static_cast<double>(r.jobs_completed),
             static_cast<double>(r.jobs_missed), r.deadline_hit_rate,
             r.mppt_error, r.harvested.value(), r.delivered.value(),
             r.halted.value(), r.energy_per_job.value()});
  }
  csv.close();
}

}  // namespace hemp
