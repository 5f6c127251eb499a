// Fleet benchmark harness: runs one fleet workload through the public engine
// entry points, checks every output, and prints one JSON object of metrics.
//
// Untraced (--trace 0), the harness repeats the end-to-end pipeline
//
//   FleetScenario::from_file -> engine ctor -> run (all workers)
//     -> write_summary_json / write_node_csv
//
// as a closed loop of fleet jobs over a fixed cycle of --seeds job seeds
// (the first is --seed itself, the rest are derived from it), re-running each
// built engine on the serial loop as the determinism cross-check.  A run
// holds as many whole cycles as fit in --seconds, so every run averages over
// the same inputs.  Traced (--trace 1), it alternates untraced and
// span-recording pipelines (their difference is the tracer's own overhead),
// replays each traced job's set-up work from outside (trace generation and
// hemp::flat builds), and then times the run layers: per-node run_node,
// laned vs scalar runs, per-node controller construction and single-node
// fast runs.  Spans stay in memory and are written out at exit.
//
// --mode ref computes the accuracy sample behind the ref_* metrics: the
// workload's whole fleet on its own engine and on the dense tick loop.
// perfbench/run.py runs it at the workload's default seed only, so the sample
// is fixed, and caches the result.
//
// Usage (normally driven by perfbench/run.py):
//   fleet_perf --scenario PATH --engine batch|fleet --nodes N --seed S
//              [--set trace=KIND] [--set shared_trace=BOOL]
//              [--set policy=NAME] [--mode measure|ref] [--seconds T]
//              [--seeds N] [--trace 0|1] [--ref-sample H]
//              [--expect-hash H] [--out-dir DIR]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/solver_stats.hpp"
#include "common/thread_pool.hpp"
#include "core/system_model.hpp"
#include "fleet/batch_kernel.hpp"
#include "fleet/fleet_sim.hpp"
#include "fleet/report.hpp"
#include "fleet/scenario.hpp"
#include "harvester/pv_cell.hpp"
#include "policy/registry.hpp"
#include "processor/corners.hpp"
#include "regulator/switched_cap.hpp"
#include "sim/flat_model.hpp"
#include "sim/soc_system.hpp"
#include "sim/sweep.hpp"
#include "trace/generators.hpp"

namespace {

using namespace hemp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

std::uint64_t fnv_mix(std::uint64_t h, double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  for (int b = 0; b < 8; ++b) {
    h ^= (bits >> (8 * b)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Fingerprint of the sampled node identities: the ref sample and the
/// measured fleet must describe the same nodes.
std::uint64_t identity_fingerprint(const std::vector<NodeResult>& nodes) {
  std::uint64_t h = kFnvBasis;
  for (const NodeResult& n : nodes) {
    const NodeSample& s = n.sample;
    h = fnv_mix(h, s.index);
    h = fnv_mix(h, s.pv_scale);
    h = fnv_mix(h, s.solar_capacitance.value());
    h = fnv_mix(h, static_cast<double>(s.conditions.corner));
    h = fnv_mix(h, s.conditions.temperature_c);
    h = fnv_mix(h, s.min_energy ? 1.0 : 0.0);
    h = fnv_mix(h, s.job_phase.value());
  }
  return h;
}

/// Fingerprint of the node outcomes (replica fidelity check).
std::uint64_t outcome_fingerprint(const std::vector<NodeResult>& nodes) {
  std::uint64_t h = kFnvBasis;
  for (const NodeResult& r : nodes) {
    h = fnv_mix(h, r.cycles);
    h = fnv_mix(h, r.jobs_completed);
    h = fnv_mix(h, r.jobs_missed);
    h = fnv_mix(h, r.harvested.value());
  }
  return h;
}

// ---------------------------------------------------------------------------
// In-memory span recorder.  All spans are opened on the main thread around
// calls into the library, so a plain stack gives each span its parent.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  int parent = -1;
  int node = -1;  ///< shared by one node's spans; -1 = fleet-wide
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int begin(std::string name, int node = -1) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), now(), 0.0,
                      stack_.empty() ? -1 : stack_.back(), node});
    stack_.push_back(id);
    return id;
  }

  void end(int id) {
    spans_[static_cast<std::size_t>(id)].t1 = now();
    stack_.pop_back();
  }

  /// The id the next span will get; pass it to total() to sum later spans.
  [[nodiscard]] std::size_t mark() const { return spans_.size(); }

  /// Summed durations of every span called `name`, from span id `from` on.
  [[nodiscard]] double total(const std::string& name, std::size_t from = 0) const {
    double sum = 0.0;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      if (spans_[i].name == name) sum += spans_[i].t1 - spans_[i].t0;
    }
    return sum;
  }

  /// Self time per layer (the span name up to its last '.'): each span's
  /// duration minus the part its children cover.
  [[nodiscard]] std::map<std::string, double> self_time_by_layer() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::size_t dot = s.name.rfind('.');
      out[s.name.substr(0, dot)] += (s.t1 - s.t0) - child[i];
    }
    return out;
  }

  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"id\":%zu,\"name\":\"%s\",\"t0\":%.9f,\"t1\":%.9f,"
                    "\"parent\":%d,\"node\":%d}\n",
                    i, s.name.c_str(), s.t0, s.t1, s.parent, s.node);
      out << line;
    }
  }

 private:
  [[nodiscard]] double now() const { return seconds_since(origin_); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span on construction and closes it on destruction; a null tracer
/// records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int node = -1)
      : tracer_(tracer), id_(tracer ? tracer->begin(std::move(name), node) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------------

struct Args {
  std::string scenario_path;
  std::string engine = "batch";  ///< "batch" (BatchFleetKernel) or "fleet"
  std::vector<std::pair<std::string, std::string>> overrides;
  int nodes = 0;
  std::uint64_t seed = 0;
  std::string mode = "measure";
  double seconds = 10.0;
  int seeds = 1;  ///< job seeds per cycle
  bool trace = false;
  std::optional<std::uint64_t> ref_sample, expect_hash;
  std::string out_dir = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "fleet_perf: %s\n(see the header of fleet_perf.cpp)\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool seen_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--scenario") {
      a.scenario_path = val;
    } else if (key == "--engine") {
      a.engine = val;
    } else if (key == "--set") {
      const std::size_t eq = val.find('=');
      if (eq == std::string::npos) usage("--set needs key=value");
      a.overrides.emplace_back(val.substr(0, eq), val.substr(eq + 1));
    } else if (key == "--nodes") {
      a.nodes = std::stoi(val);
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      seen_seed = true;
    } else if (key == "--mode") {
      a.mode = val;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--seeds") {
      a.seeds = std::stoi(val);
    } else if (key == "--ref-sample") {
      a.ref_sample = std::stoull(val, nullptr, 16);
    } else if (key == "--expect-hash") {
      a.expect_hash = std::stoull(val, nullptr, 16);
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      usage("unknown option " + key);
    }
  }
  if (a.scenario_path.empty()) usage("--scenario is required");
  if (!seen_seed) usage("--seed is required");
  if (a.engine != "batch" && a.engine != "fleet") usage("bad --engine");
  if (a.mode != "measure" && a.mode != "ref") usage("bad --mode");
  if (a.seeds < 1) usage("--seeds must be at least 1");
  return a;
}

/// The timed parse: FleetScenario::from_file plus the workload's overrides.
FleetScenario load_scenario(const Args& a, std::uint64_t seed) {
  FleetScenario sc = FleetScenario::from_file(a.scenario_path);
  for (const auto& [key, val] : a.overrides) {
    if (key == "trace") {
      sc.trace_kind = trace_kind_from_string(val);
    } else if (key == "shared_trace") {
      sc.shared_trace = val == "true" || val == "1";
    } else if (key == "policy") {
      sc.policy = val;
    } else {
      usage("unsupported --set key " + key);
    }
  }
  if (a.nodes > 0) sc.nodes = a.nodes;
  sc.seed = seed;
  sc.validate();
  return sc;
}

// ---------------------------------------------------------------------------
// Engines and the end-to-end pipeline.
// ---------------------------------------------------------------------------

/// One built fleet engine: the batch kernel or the per-node FleetSimulator.
struct Engine {
  std::unique_ptr<BatchFleetKernel> batch;
  std::unique_ptr<FleetSimulator> fleet;

  Engine(const std::string& kind, const FleetScenario& sc) {
    if (kind == "batch") {
      batch = std::make_unique<BatchFleetKernel>(sc);
    } else {
      fleet = std::make_unique<FleetSimulator>(sc);
    }
  }

  [[nodiscard]] FleetReport run(bool parallel) const {
    if (batch) return batch->run({.parallel = parallel});
    return fleet->run({.parallel = parallel});
  }
};

struct PipelineRun {
  double parse_s = 0.0;
  double ctor_s = 0.0;
  double run_s = 0.0;
  double write_s = 0.0;
  double wall_s = 0.0;
  double serial_run_s = 0.0;
  std::uint64_t exact_solves = 0;  ///< during both runs (batch must be 0)
  FleetReport report;
  std::uint64_t serial_hash = 0;
};

/// One end-to-end fleet job, then (untimed for the wall clock) the same
/// engine on the serial loop.  With a tracer every library call is a span.
PipelineRun run_pipeline(const Args& a, std::uint64_t seed, Tracer* tracer) {
  PipelineRun r;
  const std::string prefix = a.engine + ".";
  const std::string out = a.out_dir + "/";
  std::optional<Engine> engine;
  solver_stats::Snapshot solves_before;
  Clock::time_point t0, t1, t2, t3, t4;
  {
    ScopedSpan root(tracer, "e2e.pipeline");
    t0 = Clock::now();
    FleetScenario sc;
    {
      ScopedSpan s(tracer, "scenario.parse");
      sc = load_scenario(a, seed);
    }
    t1 = Clock::now();
    {
      ScopedSpan s(tracer, prefix + "ctor");
      engine.emplace(a.engine, sc);
    }
    solves_before = solver_stats::snapshot();
    t2 = Clock::now();
    {
      ScopedSpan s(tracer, prefix + "run");
      r.report = engine->run(/*parallel=*/true);
    }
    t3 = Clock::now();
    {
      ScopedSpan s(tracer, "report.write");
      write_summary_json(r.report, out + "summary.json");
      write_node_csv(r.report, out + "nodes.csv");
    }
    t4 = Clock::now();
  }
  r.parse_s = std::chrono::duration<double>(t1 - t0).count();
  r.ctor_s = std::chrono::duration<double>(t2 - t1).count();
  r.run_s = std::chrono::duration<double>(t3 - t2).count();
  r.write_s = std::chrono::duration<double>(t4 - t3).count();
  r.wall_s = std::chrono::duration<double>(t4 - t0).count();

  const Clock::time_point t5 = Clock::now();
  {
    ScopedSpan s(tracer, prefix + "run_serial");
    r.serial_hash = engine->run(/*parallel=*/false).summary_hash;
  }
  r.serial_run_s = seconds_since(t5);
  r.exact_solves = solver_stats::delta_since(solves_before).total();
  return r;
}

// ---------------------------------------------------------------------------
// Output checks and failure accounting.
// ---------------------------------------------------------------------------

struct Failures {
  long attempted = 0;  ///< node-days checked
  long failed = 0;     ///< node-days that failed a check
  std::vector<std::string> messages;

  void add(long node_days, const std::string& why) {
    failed += node_days;
    if (messages.size() < 20) messages.push_back(why);
  }
};

/// Per-node invariants: finite fields, hit rate in [0, 1], completed + missed
/// <= submitted, delivered <= harvested + initial capacitor energy.
void check_report(const FleetReport& rep, const FleetScenario& sc, Failures& f) {
  const int expected_nodes = sc.nodes;
  f.attempted += expected_nodes;
  if (rep.nodes != expected_nodes ||
      rep.node_results.size() != static_cast<std::size_t>(expected_nodes)) {
    f.add(expected_nodes, "report node count mismatch");
    return;
  }
  const SocConfig defaults;
  const double v_s = defaults.solar_start_voltage.value();
  const double v_dd = defaults.vdd_start_voltage.value();
  const double e_rail = 0.5 * sc.vdd_cap.value() * v_dd * v_dd;
  for (std::size_t i = 0; i < rep.node_results.size(); ++i) {
    const NodeResult& n = rep.node_results[i];
    const double fields[] = {n.cycles,
                             n.deadline_hit_rate,
                             n.mppt_error,
                             n.harvested.value(),
                             n.delivered.value(),
                             n.halted.value(),
                             n.energy_per_job.value(),
                             n.sample.pv_scale,
                             n.sample.solar_capacitance.value(),
                             n.sample.conditions.temperature_c};
    std::string why;
    for (const double x : fields) {
      if (!std::isfinite(x)) why = "non-finite field";
    }
    if (n.sample.index != static_cast<int>(i)) why = "node index out of order";
    if (!(n.deadline_hit_rate >= 0.0 && n.deadline_hit_rate <= 1.0)) {
      why = "hit rate outside [0, 1]";
    }
    if (n.jobs_completed + n.jobs_missed > n.jobs_submitted) {
      why = "completed + missed > submitted";
    }
    const double e0 =
        0.5 * n.sample.solar_capacitance.value() * v_s * v_s + e_rail;
    if (n.delivered.value() > (n.harvested.value() + e0) * (1.0 + 1e-9)) {
      why = "delivered > harvested + initial stored energy";
    }
    if (!why.empty()) f.add(1, "node " + std::to_string(i) + ": " + why);
  }
}

// ---------------------------------------------------------------------------
// Replays of the engines' internals from public calls.
// ---------------------------------------------------------------------------

/// The scenario's sky generator (mirrors FleetSimulator / BatchFleetKernel).
IrradianceTrace make_trace(const FleetScenario& sc, Rng& rng) {
  const double stretch = sc.day_length.value() / 0.25;
  switch (sc.trace_kind) {
    case TraceKind::kConstant:
      return IrradianceTrace::constant(sc.constant_g);
    case TraceKind::kDiurnal: {
      DiurnalArcParams p;
      p.day_length = sc.day_length;
      return diurnal_arc(rng, p);
    }
    case TraceKind::kClouds: {
      CloudFieldParams p;
      p.day.day_length = sc.day_length;
      p.mean_gap = Seconds(0.03 * stretch);
      p.mean_duration = Seconds(0.01 * stretch);
      return cloud_field(rng, p);
    }
    case TraceKind::kIndoor: {
      IndoorDutyParams p;
      p.duration = sc.day_length;
      p.mean_on = Seconds(0.04 * stretch);
      p.mean_off = Seconds(0.02 * stretch);
      return indoor_duty(rng, p);
    }
    case TraceKind::kCsv:
      return IrradianceTrace::from_csv(sc.trace_csv);
  }
  throw std::runtime_error("unknown trace kind");
}

bool shared_sky(const FleetScenario& sc) {
  return sc.shared_trace || sc.trace_kind == TraceKind::kCsv ||
         sc.trace_kind == TraceKind::kConstant;
}

/// Node i's RNG stream advanced past its identity draws (FleetSimulator's
/// sample_node order), so the next draws are its sky.
Rng node_stream_after_sampling(const FleetScenario& sc, int i, NodeSample& s) {
  Rng rng = Rng(sc.seed).fork(static_cast<std::uint64_t>(i));
  static constexpr ProcessCorner kCorners[] = {
      ProcessCorner::kSlowSlow, ProcessCorner::kTypical, ProcessCorner::kFastFast};
  s.index = i;
  s.pv_scale = rng.uniform(sc.pv_scale_min, sc.pv_scale_max);
  s.solar_capacitance =
      Farads(std::exp(rng.uniform(std::log(sc.solar_cap_min.value()),
                                  std::log(sc.solar_cap_max.value()))));
  s.conditions.corner =
      kCorners[rng.weighted(sc.corner_weights.data(), sc.corner_weights.size())];
  s.conditions.temperature_c = std::clamp(
      rng.normal(sc.temperature_mean_c, sc.temperature_sigma_c), -20.0, 85.0);
  s.min_energy = rng.uniform() < sc.min_energy_fraction;
  s.job_phase = sc.job_cycles > 0.0
                    ? Seconds(rng.uniform(0.0, sc.job_period.value()))
                    : Seconds(0.0);
  return rng;
}

/// The batch kernel's surface resolution (fleet/batch_kernel.cpp).
constexpr int kSurfaceSKnots = 13;
constexpr int kSurfaceGKnots = 61;
constexpr double kSurfaceGMin = 0.005;
constexpr double kSurfaceGMax = 1.25;
constexpr int kIvVKnots = 160;
constexpr double kIvVMax = 1.7;
constexpr int kIvGKnots = 64;

struct ReplayStats {
  double knots_per_node = 0.0;
  bool identities_match = true;
};

/// Replays the set-up work the engines do per scenario and per node: sky
/// generation, flattening and coarsening, and (batch) the shared surfaces.
ReplayStats replay_setup(const FleetScenario& sc, const std::string& engine,
                         const FleetSimulator& sampler, Tracer& tr) {
  ScopedSpan root(&tr, "replay.setup");
  ReplayStats st;
  const double t_end = sc.day_length.value();
  const double eps =
      (engine == "batch" ? sc.trace_coarsen_eps : SocConfig{}.trace_coarsen_eps) *
      t_end;
  const auto flatten_one = [&](const IrradianceTrace& trace, int node) {
    flat::FlatTrace ft;
    {
      ScopedSpan s(&tr, "flat.flatten", node);
      ft = sc.trace_kind == TraceKind::kConstant ? flat::flatten_constant(sc.constant_g)
                                                 : flat::flatten_trace(trace, t_end);
    }
    {
      ScopedSpan s(&tr, "flat.coarsen", node);
      if (eps > 0.0) ft.coarsen(eps);
    }
    return static_cast<double>(std::max<std::size_t>(ft.ts.size(), 1));
  };
  double knots = 0.0;
  int traces = 0;
  if (shared_sky(sc)) {
    Rng sky_rng = Rng(sc.seed).fork(~0ULL);
    std::optional<IrradianceTrace> sky;
    {
      ScopedSpan s(&tr, "trace.generate");
      sky.emplace(make_trace(sc, sky_rng));
    }
    knots = flatten_one(*sky, -1);
    traces = 1;
  }
  for (int i = 0; i < sc.nodes; ++i) {
    NodeSample s;
    Rng rng = node_stream_after_sampling(sc, i, s);
    const NodeSample want = sampler.sample_node(i);
    if (s.pv_scale != want.pv_scale || s.job_phase.value() != want.job_phase.value() ||
        s.conditions.temperature_c != want.conditions.temperature_c) {
      st.identities_match = false;
    }
    if (shared_sky(sc)) continue;
    std::optional<IrradianceTrace> trace;
    {
      ScopedSpan sp(&tr, "trace.generate", i);
      trace.emplace(make_trace(sc, rng));
    }
    knots += flatten_one(*trace, i);
    ++traces;
  }
  st.knots_per_node = traces > 0 ? knots / traces : 0.0;

  if (engine == "batch") {
    double s_lo = sc.pv_scale_min;
    double s_hi = sc.pv_scale_max;
    if (s_hi - s_lo < 1e-12) s_hi = s_lo + 1e-6;
    {
      ScopedSpan s(&tr, "flat.mpp_surface_build");
      (void)flat::build_mpp_surface(PvCellParams{}, s_lo, s_hi, kSurfaceSKnots,
                                    kSurfaceGMin, kSurfaceGMax, kSurfaceGKnots);
    }
    std::vector<double> s_knots(kSurfaceSKnots);
    for (int k = 0; k < kSurfaceSKnots; ++k) {
      s_knots[static_cast<std::size_t>(k)] =
          s_lo + (s_hi - s_lo) * k / (kSurfaceSKnots - 1);
    }
    ScopedSpan s(&tr, "flat.iv_surface_build");
    (void)flat::build_iv_surface(std::move(s_knots), PvCellParams{}, kIvVMax,
                                 kIvVKnots, kSurfaceGMax, kIvGKnots);
  }
  return st;
}

/// What one node replica measured.
struct ReplicaNode {
  NodeResult result;
  double make_controller_s = 0.0;
  double cold_run_s = 0.0;
  double warm_run_s = 0.0;
  std::uint64_t exact_mpp_solves = 0;  ///< during make_controller
  std::uint64_t steps = 0;             ///< during the cold run
};

/// A FleetSimulator node rebuilt from public calls, with the engine choice
/// (fast event engine or dense tick loop) in the caller's hands.  With
/// `timed`, also runs the day a second time on the same SocSystem (warm
/// surfaces) with a fresh controller.
ReplicaNode replica_node(const FleetScenario& sc, const IrradianceTrace* sky,
                         int i, bool fast_path, bool timed, Tracer* tr) {
  ReplicaNode out;
  NodeResult& res = out.result;
  Rng rng = node_stream_after_sampling(sc, i, res.sample);
  const NodeSample& s = res.sample;

  SocConfig cfg;
  cfg.pv.isc_full_sun = cfg.pv.isc_full_sun * s.pv_scale;
  cfg.solar_capacitance = s.solar_capacitance;
  cfg.vdd_capacitance = sc.vdd_cap;
  cfg.time_step = sc.time_step;
  cfg.waveform_interval = sc.waveform_interval;
  cfg.audit = false;

  const PvCell cell(cfg.pv);
  const SwitchedCapRegulator model_regulator;
  const Processor processor = make_test_chip_at(s.conditions);
  const SystemModel model(cell, model_regulator, processor);
  const PolicyRegistry& reg = PolicyRegistry::global();
  const EnergyPolicy& policy =
      !sc.policy.empty() ? reg.at(sc.policy)
                         : reg.at(s.min_energy ? "mep_hold" : "mpp_track");
  const IrradianceTrace trace = sky != nullptr ? *sky : make_trace(sc, rng);

  PolicyContext ctx;
  ctx.model = &model;
  ctx.workload = PolicyWorkload{sc.job_cycles, sc.job_period, sc.job_deadline,
                                s.job_phase};
  ctx.day_length = sc.day_length;
  ctx.solar_capacitance = cfg.solar_capacitance;
  ctx.vdd_capacitance = cfg.vdd_capacitance;
  ctx.solar_start_voltage = cfg.solar_start_voltage;
  ctx.trace = &trace;

  const auto solves0 = solver_stats::snapshot();
  Clock::time_point t0 = Clock::now();
  std::unique_ptr<PolicyController> ctrl;
  {
    ScopedSpan sp(tr, "policy.make_controller", i);
    ctrl = policy.make_controller(ctx);
  }
  out.make_controller_s = seconds_since(t0);
  out.exact_mpp_solves = solver_stats::delta_since(solves0).mpp_solves;

  cfg.fast_path = fast_path;
  SocSystem soc(cfg, std::make_unique<SwitchedCapRegulator>(), processor);
  const auto steps0 = solver_stats::step_snapshot();
  t0 = Clock::now();
  std::optional<SimResult> sim;
  {
    ScopedSpan sp(tr, "sim.fast_cold_run", i);
    sim.emplace(soc.run(trace, *ctrl, sc.day_length));
  }
  out.cold_run_s = seconds_since(t0);
  out.steps = solver_stats::step_delta_since(steps0).total();

  const PolicyJobStats jobs = ctrl->job_stats();
  res.cycles = sim->totals.cycles;
  res.jobs_submitted = jobs.submitted;
  res.jobs_completed = jobs.completed;
  res.jobs_missed = jobs.missed;
  const int adjudicated = jobs.completed + jobs.missed;
  res.deadline_hit_rate =
      adjudicated > 0 ? static_cast<double>(jobs.completed) / adjudicated : 1.0;
  res.harvested = sim->totals.harvested;
  res.delivered = sim->totals.delivered_to_processor;

  if (timed) {
    const std::unique_ptr<PolicyController> warm_ctrl = policy.make_controller(ctx);
    t0 = Clock::now();
    {
      ScopedSpan sp(tr, "sim.fast_warm_run", i);
      (void)soc.run(trace, *warm_ctrl, sc.day_length);
    }
    out.warm_run_s = seconds_since(t0);
  }
  return out;
}

/// bench_perf's soc_run_fast_1000ms: fast path, audit off, constant full
/// sun, FixedPointController at 0.5 V / 100 MHz, warm (median of 15).
double soc_run_fast_1000ms() {
  SocConfig cfg;
  cfg.fast_path = true;
  cfg.audit = false;
  SocSystem soc(cfg, std::make_unique<SwitchedCapRegulator>(),
                Processor::make_test_chip());
  const IrradianceTrace sun = IrradianceTrace::constant(1.0);
  const auto run_once = [&] {
    FixedPointController ctrl(PowerPath::kRegulated, Volts(0.5), Hertz(100e6));
    const Clock::time_point t0 = Clock::now();
    (void)soc.run(sun, ctrl, Seconds(1.0));
    return seconds_since(t0) * 1e3;
  };
  (void)run_once();  // cold: builds the surfaces
  std::vector<double> ms;
  for (int k = 0; k < 15; ++k) ms.push_back(run_once());
  return median(ms);
}

// ---------------------------------------------------------------------------
// Modes.
// ---------------------------------------------------------------------------

void print_json(const std::map<std::string, double>& metrics,
                const std::map<std::string, std::string>& strings,
                const Failures* f) {
  std::printf("{");
  bool first = true;
  for (const auto& [k, v] : strings) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", k.c_str(), v.c_str());
    first = false;
  }
  if (f != nullptr) {
    std::printf("%s\"attempted\": %ld, \"failed\": %ld, \"failures\": [",
                first ? "" : ", ", f->attempted, f->failed);
    for (std::size_t i = 0; i < f->messages.size(); ++i) {
      std::printf("%s\"%s\"", i ? ", " : "", f->messages[i].c_str());
    }
    std::printf("]");
    first = false;
  }
  std::printf("%s\"metrics\": {", first ? "" : ", ");
  first = true;
  for (const auto& [k, v] : metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(), v);
    first = false;
  }
  std::printf("}}\n");
}

/// Accuracy sample: the workload's whole fleet on its own engine and on the
/// dense tick loop, with identical inputs.
int run_ref(const Args& a) {
  const FleetScenario sc = load_scenario(a, a.seed);
  const int k = sc.nodes;
  Failures fails;
  fails.attempted = 2L * k;
  std::vector<NodeResult> engine = Engine(a.engine, sc).run(true).node_results;
  std::vector<NodeResult> dense;
  if (a.engine == "batch") {
    // The legacy-mix policies keep FleetSimulator on the dense loop.
    dense = FleetSimulator(sc).run({.parallel = true}).node_results;
  } else {
    // The node replica with fast_path on must reproduce FleetSimulator; with
    // it off, the same node runs on the dense loop.
    std::shared_ptr<const IrradianceTrace> sky;
    if (shared_sky(sc)) {
      Rng sky_rng = Rng(sc.seed).fork(~0ULL);
      sky = std::make_shared<const IrradianceTrace>(make_trace(sc, sky_rng));
    }
    const auto replica = [&](bool fast) {
      const std::vector<ReplicaNode> nodes = sweep_indexed(
          static_cast<std::size_t>(k), [&](std::size_t i) {
            return replica_node(sc, sky.get(), static_cast<int>(i), fast,
                                /*timed=*/false, nullptr);
          });
      std::vector<NodeResult> out;
      for (const ReplicaNode& n : nodes) out.push_back(n.result);
      return out;
    };
    if (outcome_fingerprint(replica(true)) != outcome_fingerprint(engine)) {
      fails.add(k, "node replica disagrees with FleetSimulator");
    }
    dense = replica(false);
  }
  if (identity_fingerprint(dense) != identity_fingerprint(engine)) {
    fails.add(k, "reference sample describes different nodes");
  }
  std::vector<double> cycles, dense_cycles, hits, dense_hits;
  for (int i = 0; i < k; ++i) {
    const auto ix = static_cast<std::size_t>(i);
    cycles.push_back(engine[ix].cycles);
    hits.push_back(engine[ix].deadline_hit_rate);
    dense_cycles.push_back(dense[ix].cycles);
    dense_hits.push_back(dense[ix].deadline_hit_rate);
  }
  print_json(
      {{"ref_cycles_rel_err",
        std::abs(mean(cycles) - mean(dense_cycles)) / mean(dense_cycles)},
       {"ref_hit_rate_abs_err", std::abs(mean(hits) - mean(dense_hits))}},
      {{"sample", hash_hex(outcome_fingerprint(engine))}}, &fails);
  return 0;
}

/// This process's resident-set high-water mark.  Read from /proc rather than
/// getrusage, whose ru_maxrss carries the parent's peak across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

int run_measure(const Args& a) {
  std::filesystem::create_directories(a.out_dir);
  Failures fails;
  std::map<std::string, double> m;
  std::map<std::string, std::string> strings;
  const FleetScenario sc = load_scenario(a, a.seed);  // job 0's inputs
  const int nodes = sc.nodes;

  // The job seeds of one cycle: --seed itself (the pinned hashes), then seeds
  // derived from it, so that a workload whose work hinges on one draw
  // (indoor_shared's single sky) is measured over many draws.
  std::vector<std::uint64_t> job_seeds{a.seed};
  for (int j = 1; j < a.seeds; ++j) {
    job_seeds.push_back(Rng(a.seed).fork(static_cast<std::uint64_t>(j)).next_u64());
  }
  // Set-up layers replayed after each traced job, summed per job.
  const std::vector<std::string> setup_layers = {
      "trace.generate", "flat.flatten", "flat.coarsen", "flat.mpp_surface_build",
      "flat.iv_surface_build"};

  std::vector<double> setup, wall, run, serial, write, parse;
  std::vector<double> traced_wall, traced_ctor, ctor_self, knots;
  std::map<std::string, std::vector<double>> layer_s;
  double exact_solves = 0.0;  // in the untraced parallel + serial runs
  Tracer tracer;
  std::optional<FleetReport> first_report;
  const Clock::time_point start = Clock::now();
  const double budget = a.trace ? 0.5 * a.seconds : a.seconds;
  // A closed loop of fleet jobs, in as many whole cycles of job_seeds as fit
  // in the budget (at least one), so that the run ends near --seconds.
  double cycle_s = 0.0;
  for (int cycle = 0; cycle == 0 || seconds_since(start) + cycle_s <= budget; ++cycle) {
    const Clock::time_point cycle_t0 = Clock::now();
    for (const std::uint64_t seed : job_seeds) {
      for (const bool traced : {false, true}) {
        if (traced && !a.trace) continue;
        PipelineRun r = run_pipeline(a, seed, traced ? &tracer : nullptr);
        check_report(r.report, sc, fails);
        fails.attempted += nodes;  // the serial run's node-days
        if (r.serial_hash != r.report.summary_hash) {
          fails.add(nodes, "serial and parallel summary hashes differ");
        }
        if (a.engine == "batch" && r.exact_solves != 0) {
          fails.add(nodes, "exact solves during a batch run");
        }
        if (seed == a.seed && a.expect_hash && r.report.summary_hash != *a.expect_hash) {
          fails.add(nodes, "summary hash " + hash_hex(r.report.summary_hash) +
                               " != pinned " + hash_hex(*a.expect_hash));
        }
        if (traced) {
          traced_wall.push_back(r.wall_s);
          traced_ctor.push_back(r.ctor_s);
          // Replay this job's set-up from outside; the constructor's self
          // time is its own span minus the replayed spans of the same job.
          const FleetScenario job_sc = load_scenario(a, seed);
          const std::size_t from = tracer.mark();
          const ReplayStats rs =
              replay_setup(job_sc, a.engine, FleetSimulator(job_sc), tracer);
          if (!rs.identities_match) fails.add(nodes, "replayed node identities differ");
          knots.push_back(rs.knots_per_node);
          double replayed = 0.0;
          for (const std::string& layer : setup_layers) {
            const double t = tracer.total(layer, from);
            layer_s[layer].push_back(t);
            replayed += t;
          }
          ctor_self.push_back(r.ctor_s - replayed);
        } else {
          setup.push_back(r.parse_s + r.ctor_s);
          parse.push_back(r.parse_s);
          wall.push_back(r.wall_s);
          run.push_back(r.run_s);
          write.push_back(r.write_s);
          serial.push_back(r.serial_run_s);
          exact_solves += static_cast<double>(r.exact_solves);
        }
        if (!first_report) first_report = std::move(r.report);
      }
    }
    cycle_s = seconds_since(cycle_t0);
  }
  const FleetReport& rep = *first_report;
  strings["summary_hash"] = hash_hex(rep.summary_hash);
  m["iterations"] = static_cast<double>(wall.size());
  m["nodes"] = nodes;
  m["exact_solves_per_node_day"] =
      exact_solves / (2.0 * nodes * static_cast<double>(wall.size()));

  // The accuracy sample (--mode ref) must be this fleet's nodes.
  if (a.ref_sample && outcome_fingerprint(rep.node_results) != *a.ref_sample) {
    fails.add(nodes, "accuracy sample differs from the measured fleet's nodes");
  }

  // Run times are means over the run's jobs, not medians: a job's run time
  // jumps between a fast and a ~1.4x slower mode with the host's memory
  // latency, so a median flips between the modes from run to run while the
  // mean moves with the mix.  Set-up is the median of the jobs' set-ups.
  m["node_days_per_s"] = nodes / mean(wall);
  m["setup_s"] = median(setup);
  m["pool.parallel_run_s"] = mean(run);
  m["pool.serial_run_s"] = mean(serial);

  if (a.trace) {
    // --- Per-layer metrics (every key present on every workload; a layer the
    // workload does not exercise reads 0). ---------------------------------
    const bool batch = a.engine == "batch";
    m["sim.soc_run_fast_1000ms"] = soc_run_fast_1000ms();
    m["trace.overhead_s"] = mean(traced_wall) - mean(wall);
    m["scenario.parse_s"] = median(parse);
    m["report.write_s"] = median(write);
    m["pool.parallel_speedup"] = m["pool.serial_run_s"] / m["pool.parallel_run_s"];
    m["pool.efficiency"] =
        m["pool.parallel_speedup"] / static_cast<double>(ThreadPool::shared().size());
    m["pool.serial_frac"] = m["setup_s"] / mean(wall);

    for (const std::string& layer : setup_layers) {
      m[layer + "_s"] = median(layer_s[layer]);
    }
    m["flat.knots_per_node"] = median(knots);

    {
      ScopedSpan s(&tracer, "report.aggregate");
      std::vector<NodeResult> copy = rep.node_results;
      (void)aggregate(sc, std::move(copy));
    }
    m["report.aggregate_s"] = tracer.total("report.aggregate");

    std::vector<double> node_s;  // per-node wall times for block imbalance
    for (const char* key :
         {"batch.ctor_s", "batch.ctor_self_s", "batch.node_us.p50",
          "batch.node_us.p99", "batch.node_us.max", "batch.ns_per_step",
          "batch.lane_gain", "batch.steps_per_node_day", "batch.steps.deadline",
          "batch.steps.trace_knot", "batch.steps.watch_bound",
          "batch.steps.settle", "batch.exact_solves_in_run",
          "policy.make_controller_us.p50", "policy.exact_mpp_solves_per_node",
          "sim.fast_cold_run_ms.p50", "sim.fast_warm_run_ms.p50",
          "sim.surface_build_ms", "sim.steps_per_node_day"}) {
      m[key] = 0.0;
    }
    if (batch) {
      m["batch.ctor_s"] = median(traced_ctor);
      m["batch.ctor_self_s"] = median(ctor_self);
      const BatchFleetKernel kernel(sc);
      {
        ScopedSpan root(&tracer, "replay.run_node");
        for (int i = 0; i < nodes; ++i) {
          const Clock::time_point t0 = Clock::now();
          ScopedSpan s(&tracer, "batch.run_node", i);
          (void)kernel.run_node(i);
          node_s.push_back(seconds_since(t0));
        }
      }
      std::vector<double> node_us;
      for (const double s : node_s) node_us.push_back(s * 1e6);
      m["batch.node_us.p50"] = percentile(node_us, 0.5);
      m["batch.node_us.p99"] = percentile(node_us, 0.99);
      m["batch.node_us.max"] = percentile(node_us, 1.0);

      const auto steps0 = solver_stats::step_snapshot();
      const auto solves0 = solver_stats::snapshot();
      const Clock::time_point t0 = Clock::now();
      (void)kernel.run({.parallel = false});
      const double laned_s = seconds_since(t0);
      const auto steps = solver_stats::step_delta_since(steps0);
      m["batch.exact_solves_in_run"] =
          static_cast<double>(solver_stats::delta_since(solves0).total());
      const Clock::time_point t1 = Clock::now();
      (void)kernel.run({.parallel = false, .simd_lanes = false});
      const double scalar_s = seconds_since(t1);
      m["batch.ns_per_step"] = laned_s * 1e9 / static_cast<double>(steps.total());
      m["batch.lane_gain"] = scalar_s / laned_s;
      const double nd = nodes;
      m["batch.steps_per_node_day"] = static_cast<double>(steps.total()) / nd;
      m["batch.steps.deadline"] = static_cast<double>(steps.deadline()) / nd;
      m["batch.steps.trace_knot"] = static_cast<double>(steps.trace_knot()) / nd;
      m["batch.steps.watch_bound"] = static_cast<double>(steps.watch_bound()) / nd;
      m["batch.steps.settle"] = static_cast<double>(steps.settle()) / nd;
    } else {
      std::shared_ptr<const IrradianceTrace> sky;
      if (shared_sky(sc)) {
        Rng sky_rng = Rng(sc.seed).fork(~0ULL);
        sky = std::make_shared<const IrradianceTrace>(make_trace(sc, sky_rng));
      }
      std::vector<double> make_us, cold_ms, warm_ms;
      double solves = 0.0;
      double steps = 0.0;
      ScopedSpan root(&tracer, "replay.replica");
      for (int i = 0; i < nodes; ++i) {
        const ReplicaNode r = replica_node(sc, sky.get(), i, /*fast_path=*/true,
                                           /*timed=*/true, &tracer);
        if (r.result.cycles != rep.node_results[static_cast<std::size_t>(i)].cycles) {
          fails.add(1, "node replica " + std::to_string(i) + " disagrees");
        }
        make_us.push_back(r.make_controller_s * 1e6);
        cold_ms.push_back(r.cold_run_s * 1e3);
        warm_ms.push_back(r.warm_run_s * 1e3);
        node_s.push_back(r.make_controller_s + r.cold_run_s);
        solves += static_cast<double>(r.exact_mpp_solves);
        steps += static_cast<double>(r.steps);
      }
      m["policy.make_controller_us.p50"] = percentile(make_us, 0.5);
      m["policy.exact_mpp_solves_per_node"] = solves / nodes;
      m["sim.fast_cold_run_ms.p50"] = percentile(cold_ms, 0.5);
      m["sim.fast_warm_run_ms.p50"] = percentile(warm_ms, 0.5);
      m["sim.surface_build_ms"] =
          m["sim.fast_cold_run_ms.p50"] - m["sim.fast_warm_run_ms.p50"];
      m["sim.steps_per_node_day"] = steps / nodes;
    }
    // Slowest 16-node block over the mean block (BatchKernelOptions' block).
    constexpr std::size_t kBlock = 16;
    std::vector<double> blocks;
    for (std::size_t lo = 0; lo < node_s.size(); lo += kBlock) {
      double sum = 0.0;
      for (std::size_t i = lo; i < std::min(lo + kBlock, node_s.size()); ++i) {
        sum += node_s[i];
      }
      blocks.push_back(sum);
    }
    m["pool.block_imbalance"] =
        blocks.empty() ? 0.0
                       : *std::max_element(blocks.begin(), blocks.end()) / mean(blocks);

    for (const auto& [layer, self_s] : tracer.self_time_by_layer()) {
      m["self." + layer + "_s"] = self_s;
    }
    tracer.write_jsonl(a.out_dir + "/spans.jsonl");
  }
  m["peak_rss_mb"] = peak_rss_mb();
  print_json(m, strings, &fails);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    return args.mode == "ref" ? run_ref(args) : run_measure(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_perf: %s\n", e.what());
    return 1;
  }
}
