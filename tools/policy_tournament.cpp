// policy_tournament: score the energy-policy zoo over a scenario grid.
//
//   policy_tournament <scenario.scn> [more.scn ...]
//                     [--policies all|name,name,...] [--corners mix,ss,tt,ff]
//                     [--nodes N] [--serial] [--out DIR]
//                     [--json NAME.json] [--bench-json PATH]
//
// Runs every (policy, scenario, corner) cell on the fleet engine — the batch
// SoA kernel when it runs the policy (BatchFleetKernel::runs), the reference
// engine (with the policy's fast-path opt-in) otherwise, and analytic offline
// scoring for the DP oracle — then emits:
//   * <out>/<json>: the full grid with per-cell metrics, an FNV-1a
//     determinism hash per cell, a combined grid hash, and the Pareto front
//     per (scenario, corner) group over (cycles up, deadline hit-rate up,
//     delivered energy down).  The file contains no wall times, so a serial
//     and a parallel run of the same grid are byte-identical (CI diffs them).
//   * --bench-json: a "policy_tournament" suite of per-cell throughput notes
//     merged into the multi-suite BENCH_perf.json document.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "microbench.hpp"

#include "common/error.hpp"
#include "fleet/batch_kernel.hpp"
#include "fleet/fleet_sim.hpp"
#include "policy/registry.hpp"

namespace {

using namespace hemp;

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <scenario.scn> [more.scn ...]\n"
               "          [--policies all|name,name,...] [--corners mix,ss,tt,ff]\n"
               "          [--nodes N] [--serial] [--out DIR]\n"
               "          [--json NAME.json] [--bench-json PATH]\n"
               "\nregistered policies:\n",
               argv0);
  for (const std::string& name : PolicyRegistry::global().names()) {
    std::fprintf(stderr, "  %-15s %s\n", name.c_str(),
                 PolicyRegistry::global().at(name).description().c_str());
  }
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string item = s.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

struct Cell {
  std::string scenario;
  std::string policy;
  std::string corner;
  std::string kernel;
  int nodes = 0;
  std::uint64_t hash = 0;
  double total_cycles = 0.0;
  double harvested_j = 0.0;
  double delivered_j = 0.0;
  long jobs_submitted = 0;
  long jobs_completed = 0;
  long jobs_missed = 0;
  double deadline_hit_rate_mean = 0.0;
  double energy_per_job_mean = 0.0;
  long brownouts = 0;
  double wall_s = 0.0;  ///< printed + bench notes only, never in the grid JSON
  bool pareto = false;
};

/// a dominates b on (cycles up, hit-rate up, delivered down).
bool dominates(const Cell& a, const Cell& b) {
  const bool ge = a.total_cycles >= b.total_cycles &&
                  a.deadline_hit_rate_mean >= b.deadline_hit_rate_mean &&
                  a.delivered_j <= b.delivered_j;
  const bool strict = a.total_cycles > b.total_cycles ||
                      a.deadline_hit_rate_mean > b.deadline_hit_rate_mean ||
                      a.delivered_j < b.delivered_j;
  return ge && strict;
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffULL;
    h *= 1099511628211ULL;
  }
  return h;
}

void apply_corner(FleetScenario& sc, const std::string& corner) {
  if (corner == "mix") return;  // scenario weights as written
  if (corner == "ss") {
    sc.corner_weights = {1.0, 0.0, 0.0};
  } else if (corner == "tt") {
    sc.corner_weights = {0.0, 1.0, 0.0};
  } else if (corner == "ff") {
    sc.corner_weights = {0.0, 0.0, 1.0};
  } else {
    throw ModelError("policy_tournament: unknown corner '" + corner +
                     "' (use mix, ss, tt, ff)");
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(argv[0]);
    return 2;
  }

  std::vector<std::string> scenario_paths;
  std::string policies_arg = "all";
  std::string corners_arg = "mix";
  std::string out_dir = "out";
  std::string json_name = "tournament.json";
  std::string bench_json;
  std::optional<std::string> nodes_arg;  // --nodes, via FleetScenario::set
  bool serial = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "policy_tournament: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--policies") {
      policies_arg = next("--policies");
    } else if (arg == "--corners") {
      corners_arg = next("--corners");
    } else if (arg == "--nodes") {
      nodes_arg = next("--nodes");
    } else if (arg == "--serial") {
      serial = true;
    } else if (arg == "--out") {
      out_dir = next("--out");
    } else if (arg == "--json") {
      json_name = next("--json");
    } else if (arg == "--bench-json") {
      bench_json = next("--bench-json");
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "policy_tournament: unknown flag %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    } else {
      scenario_paths.push_back(arg);
    }
  }
  if (scenario_paths.empty()) {
    usage(argv[0]);
    return 2;
  }

  try {
    const PolicyRegistry& registry = PolicyRegistry::global();
    std::vector<std::string> policies = policies_arg == "all"
                                            ? registry.names()
                                            : split_csv(policies_arg);
    for (const std::string& p : policies) (void)registry.at(p);  // typo -> list names
    const std::vector<std::string> corners = split_csv(corners_arg);
    if (corners.empty()) {
      std::fprintf(stderr, "policy_tournament: --corners got an empty list\n");
      return 2;
    }

    std::vector<Cell> cells;
    for (const std::string& path : scenario_paths) {
      FleetScenario base = FleetScenario::from_file(path);
      if (nodes_arg) {
        base.set("nodes", *nodes_arg);
        base.validate();
      }
      for (const std::string& corner : corners) {
        for (const std::string& policy_name : policies) {
          const EnergyPolicy& policy = registry.at(policy_name);
          FleetScenario sc = base;
          apply_corner(sc, corner);
          sc.policy = policy_name;

          const bool batch = BatchFleetKernel::runs(policy);
          const auto t0 = std::chrono::steady_clock::now();
          FleetReport report;
          if (batch) {
            const BatchFleetKernel kernel(sc, {.parallel = !serial});
            report = kernel.run({.parallel = !serial});
          } else {
            const FleetSimulator sim(sc);
            FleetOptions opts;
            opts.parallel = !serial;
            report = sim.run(opts);
          }
          const auto t1 = std::chrono::steady_clock::now();

          Cell cell;
          cell.scenario = report.scenario_name;
          cell.policy = policy_name;
          cell.corner = corner;
          cell.kernel = batch ? "batch" : "reference";
          cell.nodes = report.nodes;
          cell.hash = report.summary_hash;
          cell.total_cycles = report.total_cycles;
          cell.harvested_j = report.total_harvested.value();
          cell.delivered_j = report.total_delivered.value();
          cell.jobs_submitted = report.total_jobs_submitted;
          cell.jobs_completed = report.total_jobs_completed;
          cell.jobs_missed = report.total_jobs_missed;
          cell.deadline_hit_rate_mean = report.deadline_hit_rate.mean;
          cell.energy_per_job_mean = report.energy_per_job.mean;
          cell.brownouts = report.total_brownouts;
          cell.wall_s = std::chrono::duration<double>(t1 - t0).count();
          cells.push_back(cell);

          std::printf("%-10s %-15s %-4s %-9s hash %s  cycles %.4e  "
                      "hit %.3f  E %.4g J  (%.2f s)\n",
                      cell.scenario.c_str(), cell.policy.c_str(),
                      cell.corner.c_str(), cell.kernel.c_str(),
                      hash_hex(cell.hash).c_str(), cell.total_cycles,
                      cell.deadline_hit_rate_mean, cell.delivered_j,
                      cell.wall_s);
        }
      }
    }

    // Pareto fronts per (scenario, corner) group over the policy axis.
    for (Cell& c : cells) {
      c.pareto = std::none_of(cells.begin(), cells.end(), [&](const Cell& o) {
        return o.scenario == c.scenario && o.corner == c.corner &&
               &o != &c && dominates(o, c);
      });
    }

    std::uint64_t grid_hash = 1469598103934665603ULL;  // FNV-1a offset basis
    for (const Cell& c : cells) grid_hash = fnv1a_u64(grid_hash, c.hash);
    std::printf("\ngrid: %zu cells, grid_hash %s\n", cells.size(),
                hash_hex(grid_hash).c_str());
    std::printf("pareto front:\n");
    for (const Cell& c : cells) {
      if (c.pareto) {
        std::printf("  %-10s %-4s %s\n", c.scenario.c_str(), c.corner.c_str(),
                    c.policy.c_str());
      }
    }

    // --- Deterministic grid JSON (no wall times). --------------------------
    std::filesystem::create_directories(out_dir);
    const std::string json_path = out_dir + "/" + json_name;
    std::ofstream out(json_path);
    if (!out) throw ModelError("policy_tournament: cannot write " + json_path);
    char buf[64];
    out << "{\n  \"grid_hash\": \"" << hash_hex(grid_hash) << "\",\n";
    out << "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      out << "    {\"scenario\": \"" << json_escape(c.scenario)
          << "\", \"policy\": \"" << json_escape(c.policy)
          << "\", \"corner\": \"" << c.corner << "\", \"kernel\": \""
          << c.kernel << "\", \"nodes\": " << c.nodes << ",\n";
      out << "     \"hash\": \"" << hash_hex(c.hash) << "\",";
      std::snprintf(buf, sizeof buf, "%.17g", c.total_cycles);
      out << " \"total_cycles\": " << buf << ",";
      std::snprintf(buf, sizeof buf, "%.17g", c.harvested_j);
      out << " \"harvested_j\": " << buf << ",";
      std::snprintf(buf, sizeof buf, "%.17g", c.delivered_j);
      out << " \"delivered_j\": " << buf << ",\n";
      out << "     \"jobs_submitted\": " << c.jobs_submitted
          << ", \"jobs_completed\": " << c.jobs_completed
          << ", \"jobs_missed\": " << c.jobs_missed << ",";
      std::snprintf(buf, sizeof buf, "%.17g", c.deadline_hit_rate_mean);
      out << " \"deadline_hit_rate_mean\": " << buf << ",\n";
      std::snprintf(buf, sizeof buf, "%.17g", c.energy_per_job_mean);
      out << "     \"energy_per_job_mean\": " << buf
          << ", \"brownouts\": " << c.brownouts
          << ", \"pareto\": " << (c.pareto ? "true" : "false") << "}"
          << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    out.close();
    std::printf("wrote %s\n", json_path.c_str());

    // --- Throughput notes into the merged BENCH document. ------------------
    if (!bench_json.empty()) {
      microbench::Suite suite("policy_tournament");
      for (const Cell& c : cells) {
        const std::string key =
            c.scenario + "_" + c.policy + "_" + c.corner;
        suite.note(key + "_nodes_per_sec",
                   c.wall_s > 0.0 ? c.nodes / c.wall_s : 0.0);
      }
      if (!suite.write_json_merged(bench_json)) {
        std::fprintf(stderr, "policy_tournament: failed to write %s\n",
                     bench_json.c_str());
        return 1;
      }
      std::printf("merged suite 'policy_tournament' into %s\n",
                  bench_json.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "policy_tournament: %s\n", e.what());
    return 1;
  }
  return 0;
}
