// fleetsim: run a fleet scenario and write its aggregate report.
//
//   fleetsim <scenario.scn> [--kernel batch|reference] [--policy NAME]
//            [--nodes N] [--seed S] [--coarsen-eps E] [--serial]
//            [--out DIR] [--no-files]
//
// Loads the scenario description, simulates the fleet (parallel by default,
// `--serial` for one thread end to end, the batch kernel's construction
// included; both orders are bit-identical),
// prints the population aggregates plus the determinism witness
// (`summary_hash`), and writes
// <out>/<name>_summary.json and <out>/<name>_nodes.csv.  Two runs with the
// same scenario and seed print the same hash and write byte-identical JSON.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "fleet/batch_kernel.hpp"
#include "fleet/fleet_sim.hpp"
#include "policy/registry.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <scenario.scn> [--kernel batch|reference]\n"
               "          [--policy NAME] [--nodes N] [--seed S]\n"
               "          [--coarsen-eps E] [--serial] [--out DIR] "
               "[--no-files]\n"
               "\n"
               "--serial runs on the calling thread alone, construction and\n"
               "run (same summary_hash as the default parallel run).\n"
               "--coarsen-eps overrides the scenario's trace_coarsen_eps\n"
               "(irradiance-trace knot-dropping budget as a day-integral\n"
               "fraction; 0 disables coarsening).\n"
               "--policy forces every node onto one registered energy policy\n"
               "(overrides the scenario's min_energy mix / policy key):\n",
               argv0);
  for (const std::string& name : hemp::PolicyRegistry::global().names()) {
    std::fprintf(stderr, "  %-15s %s\n", name.c_str(),
                 hemp::PolicyRegistry::global().at(name).description().c_str());
  }
}

void print_metric(const char* name, const hemp::MetricSummary& m) {
  std::printf("  %-18s mean %-12.6g p05 %-12.6g p50 %-12.6g p95 %-12.6g\n",
              name, m.mean, m.p05, m.p50, m.p95);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hemp;

  if (argc < 2) {
    usage(argv[0]);
    return 2;
  }

  std::string scenario_path;
  std::string forced_policy;
  std::string out_dir = "out";
  bool serial = false;
  bool write_files = true;
  bool use_batch = false;
  // --nodes/--seed/--coarsen-eps, applied through FleetScenario::set.
  std::vector<std::pair<std::string, std::string>> overrides;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fleetsim: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--serial") {
      serial = true;
    } else if (arg == "--kernel") {
      const std::string kernel = next("--kernel");
      if (kernel == "batch") {
        use_batch = true;
      } else if (kernel == "reference") {
        use_batch = false;
      } else {
        std::fprintf(stderr, "fleetsim: --kernel must be batch or reference\n");
        return 2;
      }
    } else if (arg == "--policy") {
      forced_policy = next("--policy");
    } else if (arg == "--no-files") {
      write_files = false;
    } else if (arg == "--nodes") {
      overrides.emplace_back("nodes", next("--nodes"));
    } else if (arg == "--seed") {
      overrides.emplace_back("seed", next("--seed"));
    } else if (arg == "--coarsen-eps") {
      overrides.emplace_back("trace_coarsen_eps", next("--coarsen-eps"));
    } else if (arg == "--out") {
      out_dir = next("--out");
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "fleetsim: unknown flag %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    } else if (scenario_path.empty()) {
      scenario_path = arg;
    } else {
      std::fprintf(stderr, "fleetsim: extra argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (scenario_path.empty()) {
    usage(argv[0]);
    return 2;
  }

  try {
    FleetScenario scenario = FleetScenario::from_file(scenario_path);
    for (const auto& [key, value] : overrides) scenario.set(key, value);
    // Both engines validate the scenario and resolve its policy first, so a
    // typo reports the registry's names.
    if (!forced_policy.empty()) scenario.policy = forced_policy;

    const auto t0 = std::chrono::steady_clock::now();
    FleetReport report;
    if (use_batch) {
      const BatchFleetKernel kernel(scenario, {.parallel = !serial});
      report = kernel.run({.parallel = !serial});
    } else {
      report = FleetSimulator(scenario).run({.parallel = !serial});
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_s = std::chrono::duration<double>(t1 - t0).count();

    std::printf("scenario:      %s (%s)\n", report.scenario_name.c_str(),
                scenario_path.c_str());
    std::printf("nodes:         %d\n", report.nodes);
    std::printf("seed:          %llu\n",
                static_cast<unsigned long long>(report.seed));
    std::printf("day length:    %.6g s (compressed day)\n",
                report.day_length.value());
    std::printf("kernel:        %s\n", use_batch ? "batch" : "reference");
    if (!scenario.policy.empty()) {
      std::printf("policy:        %s (forced on every node)\n",
                  scenario.policy.c_str());
    }
    std::printf("execution:     %s, %u pool thread(s), %.3f s wall "
                "(%.1f nodes/s)\n",
                serial ? "serial" : "parallel", ThreadPool::shared().size(),
                wall_s, report.nodes / wall_s);
    std::printf("\ntotals:\n");
    std::printf("  cycles         %.6e\n", report.total_cycles);
    std::printf("  harvested      %.6g J\n", report.total_harvested.value());
    std::printf("  delivered      %.6g J\n", report.total_delivered.value());
    std::printf("  brownouts      %ld\n", report.total_brownouts);
    std::printf("  jobs           %ld submitted, %ld completed, %ld missed\n",
                report.total_jobs_submitted, report.total_jobs_completed,
                report.total_jobs_missed);
    std::printf("\ndistributions (per node):\n");
    print_metric("cycles", report.cycles);
    print_metric("brownouts", report.brownouts);
    print_metric("deadline_hit_rate", report.deadline_hit_rate);
    print_metric("mppt_error", report.mppt_error);
    print_metric("energy_per_job", report.energy_per_job);
    std::printf("\nsummary_hash: %s\n", hash_hex(report.summary_hash).c_str());

    if (write_files) {
      std::filesystem::create_directories(out_dir);
      const std::string stem = out_dir + "/" + report.scenario_name;
      write_summary_json(report, stem + "_summary.json");
      write_node_csv(report, stem + "_nodes.csv");
      std::printf("wrote %s_summary.json and %s_nodes.csv\n", stem.c_str(),
                  stem.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetsim: %s\n", e.what());
    return 1;
  }
  return 0;
}
