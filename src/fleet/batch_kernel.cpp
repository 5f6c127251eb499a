#include "fleet/batch_kernel.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/interpolation.hpp"
#include "common/numeric.hpp"
#include "common/rng.hpp"
#include "common/solver_stats.hpp"
#include "core/energy_manager.hpp"
#include "core/mpp_tracker.hpp"
#include "core/regulator_selector.hpp"
#include "core/sprint_scheduler.hpp"
#include "core/system_model.hpp"
#include "harvester/iv_curve.hpp"
#include "harvester/pv_cell.hpp"
#include "policy/registry.hpp"
#include "processor/corners.hpp"
#include "processor/processor.hpp"
#include "regulator/switched_cap.hpp"
#include "sim/flat_model.hpp"
#include "sim/flat_step.hpp"
#include "sim/soc_system.hpp"

namespace hemp {

namespace {

// ---------------------------------------------------------------------------
// Model constants come from the component parameter defaults: the fleet
// builds every node from SocConfig{}, SwitchedCapParams{} and PvCellParams{}
// plus the sampled scale factors, and each node's processor from
// make_test_chip_at.  Manager and tracker constants come from the lane's
// EnergyManagerParams (Shared::mgr).  The step physics is the shared
// flat::StepCore (sim/flat_step.hpp).
// ---------------------------------------------------------------------------

using flat::FlatTrace;
using flat::flatten_constant;
using flat::flatten_trace;
using PvFlat = flat::FlatPv;
using WatchAccum = flat::WatchAccum;

const SocConfig kSoc{};

// The DVFS ladder length sizes per-node arrays, so it stays a compile-time
// constant; runs() admits only managers whose tracker uses it.
constexpr int kLadderSteps = 48;
static_assert(kLadderSteps == MppTrackerParams{}.dvfs_steps);

// Surface resolution (shared across the fleet; exact solves, ctor only).
constexpr int kSurfaceSKnots = 13;
constexpr int kSurfaceGKnots = 61;
constexpr double kSurfaceGMin = 0.005;
constexpr int kCrossTempKnots = 6;
constexpr int kCrossSKnots = 7;
constexpr double kCrossMinG = 0.045;  // below resolution: "no crossover"

// Nodes per constructor work unit (sampling, trace flatten + coarsen, and
// per-node constants); measured in DESIGN.md Sec. 6j.
constexpr std::size_t kCtorNodeBlock = 16;

// Terminal-current surface i(v, g): the stepped loop's only cell-model
// evaluation (bilinear in (v, g), scale-blended across two pv-scale slices,
// at flat::kIvVKnots x flat::kIvGKnots).  1.7 V covers the largest
// open-circuit voltage any sampled cell reaches.
constexpr double kIvVMax = 1.7;

// ---------------------------------------------------------------------------
// Flattened component math: hemp::flat mirrors, specialized to the fleet's
// fixed component defaults.
// ---------------------------------------------------------------------------

// Every fleet node shares the default switched-cap regulator.
const flat::FlatSc kScFlat = flat::make_flat_sc(SwitchedCapParams{});

/// The default cell with its short-circuit current scaled by `pv_scale`
/// (the only PV parameter a fleet node varies).
PvCellParams scaled_pv_params(double pv_scale) {
  PvCellParams p;
  p.isc_full_sun = p.isc_full_sun * pv_scale;
  return p;
}

// ---------------------------------------------------------------------------
// Shared (pv_scale, irradiance) MPP surfaces.
// ---------------------------------------------------------------------------

std::vector<double> linspace(double lo, double hi, int n) {
  std::vector<double> xs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    xs[static_cast<std::size_t>(i)] = lo + (hi - lo) * i / (n - 1);
  }
  return xs;
}

/// Degenerate sampled ranges (pv_scale_min == pv_scale_max) still need two
/// distinct grid knots.
std::pair<double, double> widen_if_degenerate(double lo, double hi) {
  if (hi - lo < 1e-12) hi = lo + 1e-6;
  return {lo, hi};
}

// ---------------------------------------------------------------------------
// Scenario-level surfaces, built once per process (DESIGN.md Sec. 6k).
// ---------------------------------------------------------------------------

/// The constructor's exact solves that no node, seed or sky affects.  They
/// are a pure function of the widened pv-scale range: every other input
/// (PvCellParams{}, SwitchedCapParams{}, make_test_chip_at, the temperature
/// knots and the kSurface*/kIv*/kCross* resolution) is a compile-time
/// default.  A builder that reads another scenario field must add it to
/// SurfaceKey.
struct FleetSurfaces {
  flat::MppSurface mpp;
  flat::IvSurface iv;
  /// Low-light crossover irradiance per corner over (temperature, pv_scale);
  /// 0 = no crossover.
  std::array<BilinearGrid, 3> cross;
};

/// Bit patterns of the widened (s_lo, s_hi): hits need identical inputs.
using SurfaceKey = std::array<std::uint64_t, 2>;

/// Process-wide memo of FleetSurfaces, at most kCapacity entries, least
/// recently used evicted first.  The mutex guards the entries only: builds
/// run outside it, so concurrent misses on one key may both build and the
/// first insert wins (their bits are identical).  Nobody waits on another
/// thread's build: a constructor running inline on a pool worker must not
/// block on work queued behind it.
class SurfaceCache {
 public:
  [[nodiscard]] std::shared_ptr<const FleetSurfaces> find(const SurfaceKey& key) {
    const std::lock_guard lock(mu_);
    const Entry* e = touch(key);
    return e != nullptr ? e->value : nullptr;
  }

  /// Stores `value` unless `key` is already present; returns the entry every
  /// kernel on `key` now shares.
  std::shared_ptr<const FleetSurfaces> insert(
      const SurfaceKey& key, std::shared_ptr<const FleetSurfaces> value) {
    std::shared_ptr<const FleetSurfaces> evicted;  // freed after unlocking
    const std::lock_guard lock(mu_);
    if (const Entry* e = touch(key)) return e->value;
    if (entries_.size() == kCapacity) {
      auto lru = std::min_element(
          entries_.begin(), entries_.end(),
          [](const Entry& a, const Entry& b) { return a.last_use < b.last_use; });
      evicted = std::move(lru->value);
      entries_.erase(lru);
    }
    entries_.push_back({key, value, ++clock_});
    return value;
  }

 private:
  /// One entry is ~1.1 MB, almost all of it the IV slices.
  static constexpr std::size_t kCapacity = 4;

  struct Entry {
    SurfaceKey key{};
    std::shared_ptr<const FleetSurfaces> value;
    std::uint64_t last_use = 0;
  };

  Entry* touch(const SurfaceKey& key) {
    for (Entry& e : entries_) {
      if (e.key == key) {
        e.last_use = ++clock_;
        return &e;
      }
    }
    return nullptr;
  }

  std::mutex mu_;
  std::vector<Entry> entries_;
  std::uint64_t clock_ = 0;
};

SurfaceCache& surface_cache() {
  static SurfaceCache cache;
  return cache;
}

}  // namespace

// ---------------------------------------------------------------------------
// Shared state: everything precomputed once per scenario.
// ---------------------------------------------------------------------------

struct BatchFleetKernel::Shared {
  FleetScenario scenario;
  bool shared_sky = false;
  FlatTrace sky;  ///< valid when shared_sky

  /// Manager and tracker parameters of every lane: the legacy mix's defaults
  /// (mode per node from the sampled min_energy) or a forced policy's.
  EnergyManagerParams mgr;

  // SoA node-parameter plane (index-parallel arrays).
  std::vector<NodeSample> samples;
  std::vector<PvFlat> pv;
  std::vector<flat::FlatProc> proc;
  std::vector<double> crossover_power;  ///< 0 = no low-light crossover
  std::vector<FlatTrace> traces;        ///< empty when shared_sky
  /// Kept for exact sprint planning; optional only so that every slot can
  /// be constructed in place by its own work unit.
  std::vector<std::optional<Processor>> processors;

  /// Shared MPP + terminal-current surfaces and crossover tables, built by
  /// the hemp::flat layer (exact solves, ctor only) or found in the cache.
  std::shared_ptr<const FleetSurfaces> surfaces;

  // Exact cell/regulator the sprint scheduler's SystemModel plumbs through
  // (plan() only touches the processor, but the model wants references).
  PvCell ref_cell{PvCellParams{}};
  SwitchedCapRegulator ref_reg;
};

BatchFleetKernel::BatchFleetKernel(FleetScenario scenario,
                                   const BatchKernelOptions& opts) {
  auto shared = std::make_shared<Shared>();
  Shared& sh = *shared;
  sh.scenario = std::move(scenario);
  sh.scenario.validate();
  const FleetScenario& sc = sh.scenario;

  // --- Forced scenario policy: only managers the lane implements (runs())
  // ride this kernel; everything else must use the reference engine. --------
  const bool forced = !sc.policy.empty();
  if (forced) {
    const EnergyPolicy& policy = PolicyRegistry::global().at(sc.policy);
    if (!runs(policy)) {
      throw ModelError("BatchFleetKernel: policy '" + sc.policy +
                       "' has no batch-kernel lane; run it on the reference "
                       "kernel (fleetsim --kernel reference)");
    }
    sh.mgr = *policy.manager_params();
    sh.mgr.validate();
  }

  // Everything below up to the crossover-power pass is a set of independent
  // work units (DESIGN.md Sec. 6j).  The serial set-up is sizing only: each
  // unit writes its own preallocated slot, so running the units on the pool
  // in any order gives the bits of the serial loop.

  // --- Scenario-level surfaces (Sec. 6k): a hit in the process-wide cache
  // skips their units; a miss sizes them here and fills them below.
  const auto [s_lo, s_hi] =
      widen_if_degenerate(sc.pv_scale_min, sc.pv_scale_max);
  const SurfaceKey key{std::bit_cast<std::uint64_t>(s_lo),
                       std::bit_cast<std::uint64_t>(s_hi)};
  sh.surfaces = surface_cache().find(key);
  std::shared_ptr<FleetSurfaces> fresh;
  if (!sh.surfaces) {
    fresh = std::make_shared<FleetSurfaces>();
    // Shared MPP + terminal-current surfaces: exact solves sampled once by
    // the hemp::flat builders, one unit per pv-scale row.
    fresh->mpp = flat::size_mpp_surface(s_lo, s_hi, kSurfaceSKnots, kSurfaceGMin,
                                        flat::kSurfaceGMax, kSurfaceGKnots);
    fresh->iv =
        flat::size_iv_surface(linspace(s_lo, s_hi, kSurfaceSKnots), kIvVMax,
                              flat::kIvVKnots, flat::kSurfaceGMax, flat::kIvGKnots);
  }

  // --- Low-light crossover tables: exact RegulatorSelector bisection per
  // corner over a coarse (temperature, pv_scale) grid, one unit per cell;
  // interpolated per node once every cell is in.
  const std::vector<double> temp_knots = linspace(-20.0, 85.0, kCrossTempKnots);
  const std::vector<double> cross_s_knots = linspace(s_lo, s_hi, kCrossSKnots);
  // Corner order: the crossover tables' index (corner_ix below).
  static constexpr ProcessCorner kCorners[] = {ProcessCorner::kSlowSlow,
                                               ProcessCorner::kTypical,
                                               ProcessCorner::kFastFast};
  const std::size_t cross_cells = temp_knots.size() * cross_s_knots.size();
  std::array<std::vector<double>, 3> cross_vals;
  for (std::vector<double>& v : cross_vals) v.resize(cross_cells);
  const auto solve_cross_cell = [&](std::size_t cell) {
    const std::size_t c = cell / cross_cells;
    const std::size_t k = cell % cross_cells;
    const std::size_t i = k / cross_s_knots.size();
    const std::size_t j = k % cross_s_knots.size();
    const PvCell pv_cell(scaled_pv_params(cross_s_knots[j]));
    const SwitchedCapRegulator reg;
    const Processor proc = make_test_chip_at({kCorners[c], temp_knots[i]});
    const SystemModel model(pv_cell, reg, proc);
    RegulatorSelector selector(model);
    cross_vals[c][k] = selector.crossover_irradiance().value_or(0.0);
  };

  sh.shared_sky = sc.shares_sky();

  // Adaptive knot coarsening: every flattened trace gives up knots until the
  // cumulative absorbed-irradiance perturbation hits the scenario's per-day
  // budget (see flat::FlatTrace::coarsen).  Each surviving knot is a step the
  // event-driven loop must take, so this directly buys throughput.
  const double coarsen_budget = sc.trace_coarsen_eps * sc.day_length.value();
  const auto build_sky = [&] {
    Rng sky_rng = Rng(sc.seed).fork(~0ULL);
    const IrradianceTrace trace = draw_sky(sc, sky_rng);
    sh.sky = sc.trace_kind == TraceKind::kConstant
                 ? flatten_constant(sc.constant_g)
                 : flatten_trace(trace, sc.day_length.value());
    if (coarsen_budget > 0.0) sh.sky.coarsen(coarsen_budget);
  };

  const std::size_t n = static_cast<std::size_t>(sc.nodes);
  sh.samples.resize(n);
  sh.pv.resize(n);
  sh.proc.resize(n);
  sh.crossover_power.resize(n);
  sh.processors.resize(n);
  if (!sh.shared_sky) sh.traces.resize(n);

  const auto build_node = [&](std::size_t i) {
    Rng rng = Rng(sc.seed).fork(static_cast<std::uint64_t>(i));
    NodeSample& s = sh.samples[i];
    s = draw_node(sc, static_cast<int>(i), rng);
    // A forced policy overrides the sampled mode (the effective mode lands
    // in the report's CSV); the Bernoulli draw still happened.
    if (forced) s.min_energy = sh.mgr.mode == ManagerMode::kMinEnergy;
    if (!sh.shared_sky) {
      sh.traces[i] = flatten_trace(draw_sky(sc, rng), sc.day_length.value());
      if (coarsen_budget > 0.0) sh.traces[i].coarsen(coarsen_budget);
    }

    sh.pv[i] = flat::make_flat_pv(scaled_pv_params(s.pv_scale));
    sh.processors[i].emplace(make_test_chip_at(s.conditions));
    sh.proc[i] = flat::make_flat_proc(*sh.processors[i]);
  };

  // --- The work units, longest first so the pool's tail is the short
  // crossover cells: the shared sky, IV slices, node blocks, MPP rows, then
  // the crossover cells (the surface units only on a cache miss). -----------
  const std::size_t sky_units = sh.shared_sky ? 1 : 0;
  const std::size_t iv_units = fresh ? fresh->iv.s_knots.size() : 0;
  const std::size_t node_units = (n + kCtorNodeBlock - 1) / kCtorNodeBlock;
  const std::size_t mpp_units = fresh ? fresh->mpp.s_knots.size() : 0;
  const std::size_t cross_units = fresh ? cross_vals.size() * cross_cells : 0;
  const auto run_unit = [&](std::size_t u) {
    if (u < sky_units) return build_sky();
    u -= sky_units;
    if (u < iv_units) return flat::fill_iv_slice(fresh->iv, PvCellParams{}, u);
    u -= iv_units;
    if (u < node_units) {
      const std::size_t hi = std::min(n, (u + 1) * kCtorNodeBlock);
      for (std::size_t i = u * kCtorNodeBlock; i < hi; ++i) build_node(i);
      return;
    }
    u -= node_units;
    if (u < mpp_units) return flat::fill_mpp_row(fresh->mpp, PvCellParams{}, u);
    solve_cross_cell(u - mpp_units);
  };
  const std::size_t units =
      sky_units + iv_units + node_units + mpp_units + cross_units;
  if (opts.parallel) {
    parallel_for(opts.pool != nullptr ? *opts.pool : ThreadPool::shared(),
                 units, run_unit);
  } else {
    for (std::size_t u = 0; u < units; ++u) run_unit(u);
  }

  if (fresh) {
    for (std::size_t c = 0; c < fresh->cross.size(); ++c) {
      fresh->cross[c] =
          BilinearGrid(temp_knots, cross_s_knots, std::move(cross_vals[c]));
    }
    sh.surfaces = surface_cache().insert(key, std::move(fresh));
  }

  // --- Per-node crossover power: reads the finished crossover tables and
  // MPP surface, so it runs after every unit. -------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    const NodeSample& s = sh.samples[i];
    const int corner_ix = s.conditions.corner == ProcessCorner::kSlowSlow ? 0
                          : s.conditions.corner == ProcessCorner::kTypical ? 1
                                                                           : 2;
    const double g_cross = sh.surfaces->cross[static_cast<std::size_t>(corner_ix)](
        s.conditions.temperature_c, s.pv_scale);
    sh.crossover_power[i] =
        g_cross >= kCrossMinG ? sh.surfaces->mpp.pmpp_at(s.pv_scale, g_cross) : 0.0;
    // A zero crossover power is exactly how the manager encodes "bypass off".
    if (!sh.mgr.low_light_bypass_enabled) sh.crossover_power[i] = 0.0;
  }

  shared_ = std::move(shared);
}

BatchFleetKernel::~BatchFleetKernel() = default;

bool BatchFleetKernel::runs(const EnergyPolicy& policy) {
  const std::optional<EnergyManagerParams> params = policy.manager_params();
  return params && params->queue_discipline == QueueDiscipline::kFifo &&
         params->tracker.dvfs_steps == kLadderSteps;
}

const FleetScenario& BatchFleetKernel::scenario() const {
  return shared_->scenario;
}

namespace {

// ---------------------------------------------------------------------------
// Per-node runner: the flattened controller on top of the shared step core,
// integrated to completion one node at a time (everything lives in L1).
// ---------------------------------------------------------------------------

enum class MgrState { kTracking, kSprinting, kRecovering };

struct MepSlot {
  bool computed = false;
  bool feasible = false;
  double vdd = 0.0;
  double freq = 0.0;
};

struct NodeRunner : flat::StepCore {
  const BatchFleetKernel::Shared& sh;
  const EnergyManagerParams& mgr_params;
  const MppTrackerParams& trk;
  const NodeSample& s;
  const PvFlat& pv;
  double crossover_power;
  std::vector<ComparatorEvent>* events;  ///< traced mode when set

  // --- energy manager
  MgrState mgr = MgrState::kTracking;
  bool bypass = false;
  double prev_v_mgr = 0.0;
  double next_reassess = 0.0;
  std::optional<double> p_est;  ///< steady-state light estimate (W)

  // --- sprint: every fleet job is identical, so one plan serves the node
  std::optional<SprintPlan> plan;
  double sprint_started = 0.0;
  double sprint_start_cycles = 0.0;
  bool sprint_bypassed = false;

  // --- MPP tracker
  double v_target = 0.0;
  long level = 0;
  double next_control = 0.0;
  double prev_v_trk = 0.0;
  ThresholdTimer timer;
  bool timer_watched = false;  ///< tracker ran this eval -> watch its levels

  // --- periodic jobs
  int queue = 0;
  double next_submit = 0.0;
  int jobs_submitted = 0, jobs_completed = 0, jobs_missed = 0;

  double p_processor = 0.0;  ///< previous step's load (controller observable)
  /// mppt_vmpp's memo, indexed by k = round(g0 * 100); NaN = not yet read.
  std::array<double, 160> vmpp_memo = [] {
    std::array<double, 160> m;
    m.fill(std::numeric_limits<double>::quiet_NaN());
    return m;
  }();
  double mppt_num = 0.0, mppt_den = 0.0;

  // --- caches
  std::array<MepSlot, 32> mep_cache{};
  std::optional<PiecewiseLinear> lut_p2v{}, lut_p2p{};
  std::array<double, kLadderSteps> ladder_v{}, ladder_f{};

  // --- SocConfig's solar-node comparator bank (traced mode only) and the
  // edges of its latest update
  std::optional<ComparatorBank> bank;
  std::vector<ComparatorEvent> bank_edges;

  NodeRunner(const BatchFleetKernel::Shared& shared, std::size_t i,
             std::vector<ComparatorEvent>* traced)
      : sh(shared),
        mgr_params(shared.mgr),
        trk(shared.mgr.tracker),
        s(shared.samples[i]),
        pv(shared.pv[i]),
        crossover_power(shared.crossover_power[i]),
        events(traced),
        timer(trk.v_high, trk.v_low) {
    trace = shared.shared_sky ? &shared.sky : &shared.traces[i];
    sc = kScFlat;
    pc = shared.proc[i];
    iv = shared.surfaces->iv.bind(s.pv_scale);
    t_end = shared.scenario.day_length.value();
    dt_min = shared.scenario.time_step.value();
    tau = kSoc.regulation_time_constant.value();
    c_solar = s.solar_capacitance.value();
    c_vdd = shared.scenario.vdd_cap.value();
    r_on = kSoc.bypass.on_resistance.value();
    v_s = kSoc.solar_start_voltage.value();
    v_d = kSoc.vdd_start_voltage.value();
  }

  // ---------------------------------------------------------------------
  // Setup
  // ---------------------------------------------------------------------

  void build_ladder() {
    const double lo = pc.vmin;
    const double hi = std::min(trk.vdd_ceiling.value(), pc.vmax);
    for (int i = 0; i < kLadderSteps; ++i) {
      const double v = lo + (hi - lo) * i / (kLadderSteps - 1);
      ladder_v[static_cast<std::size_t>(i)] = v;
      ladder_f[static_cast<std::size_t>(i)] = proc_fmax(pc, v);
    }
  }

  /// MppLut surrogate: sample the cell at the mid-threshold voltage with the
  /// fast Newton solve, at MppLut's default knots, and map power -> (Vmpp,
  /// Pmpp) via the shared surfaces.
  void build_lut() {
    const double v_meas = 0.5 * (trk.v_high.value() + trk.v_low.value());
    std::vector<double> p, vmpp, pmpp;
    double last_p = -1.0;
    double warm = 0.0;
    for (int i = 0; i < kMppLutSamples; ++i) {
      const double g =
          kMppLutGMin + (kMppLutGMax - kMppLutGMin) * i / (kMppLutSamples - 1);
      const double p_meas = v_meas * pv_current(pv, v_meas, g, warm);
      if (p_meas <= last_p) continue;
      p.push_back(p_meas);
      vmpp.push_back(sh.surfaces->mpp.vmpp_at(s.pv_scale, g));
      pmpp.push_back(sh.surfaces->mpp.pmpp_at(s.pv_scale, g));
      last_p = p_meas;
    }
    lut_p2v.emplace(p, vmpp);
    lut_p2p.emplace(p, pmpp);
  }

  void on_start() {
    build_ladder();
    build_lut();
    next_submit = s.job_phase.value();
    // MppTrackingController::on_start
    v_target = sh.surfaces->mpp.vmpp_at(s.pv_scale, 1.0);
    timer.reset(Volts(v_s));
    level = 0;
    cmd_path = PowerPath::kRegulated;
    cmd_run = true;
    ladder_apply();
    // EnergyManager::on_start
    prev_v_mgr = v_s;
    enter_tracking();
    if (events != nullptr) {
      bank.emplace(kSoc.comparator_thresholds);
      bank->reset(Volts(v_s));
    }
  }

  /// Traced mode: feed the bank this instant's solar voltage and record its
  /// edges.
  void update_bank() {
    bank->update_into(Volts(v_s), Seconds(t), bank_edges);
    // hemp-analyzer: allow(hot-path-purity) — traced diagnostic mode
    events->insert(events->end(), bank_edges.begin(), bank_edges.end());
  }

  // ---------------------------------------------------------------------
  // Controller (flattened ManagedPolicyController + EnergyManager +
  // MppTrackingController; branch order mirrors the reference sources).
  // ---------------------------------------------------------------------

  void ladder_apply() {
    level = std::clamp<long>(level, 0, kLadderSteps - 1);
    cmd_vdd = ladder_v[static_cast<std::size_t>(level)];
    cmd_freq = ladder_f[static_cast<std::size_t>(level)];
  }

  /// The previous step's load as a source-side draw through the regulator
  /// at the present command (unconverted where the regulator cannot run).
  [[nodiscard]] double source_draw() const {
    double p_draw = p_processor;
    if (p_draw > 0.0 && sc_supports(sc, v_s, cmd_vdd)) {
      const double eta = sc_efficiency(sc, v_s, cmd_vdd, p_draw);
      if (eta > 0.0) p_draw /= eta;
    }
    return p_draw;
  }

  void apply_mep(double g_estimate) {
    const int bucket = static_cast<int>(g_estimate * 20.0 + 0.5);
    MepSlot& slot = mep_cache[static_cast<std::size_t>(
        std::clamp(bucket, 0, 31))];
    if (!slot.computed) {
      slot.computed = true;
      const double g = std::max(bucket, 1) / 20.0;
      const double vmpp = sh.surfaces->mpp.vmpp_at(s.pv_scale, g);
      auto objective = [&](double v) {
        if (!sc_supports(sc, vmpp, v)) {
          return std::numeric_limits<double>::infinity();
        }
        const double eta = sc_efficiency(sc, vmpp, v, proc_max_power(pc, v));
        if (eta <= 0.0) return std::numeric_limits<double>::infinity();
        return proc_epc(pc, v) / eta;
      };
      // Memoized: at most 32 buckets per node-day reach this solve.
      // hemp-analyzer: allow(hot-path-purity) — cold memoized MEP branch
      const auto r = numeric::grid_refine_minimize(
          objective, pc.vmin, pc.vmax, {.x_tol = 1e-6, .grid_points = 160});
      if (std::isfinite(r.value)) {
        slot.feasible = true;
        slot.vdd = r.x;
        slot.freq = proc_fmax(pc, r.x);
      }
    }
    if (slot.feasible) {
      cmd_vdd = slot.vdd;
      cmd_freq = slot.freq;
    }
  }

  void enter_tracking() {
    mgr = MgrState::kTracking;
    cmd_path = bypass ? PowerPath::kBypass : PowerPath::kRegulated;
    cmd_run = true;
    if (s.min_energy && !bypass) apply_mep(0.5);
  }

  void refresh_light_estimate() {
    if (t < next_reassess) return;
    next_reassess = t + mgr_params.reassess_period.value();
    const double dv = std::fabs(v_s - prev_v_mgr);
    prev_v_mgr = v_s;
    if (dv > 0.01) return;
    const double p_draw = bypass ? p_processor : source_draw();
    if (p_draw > 0.0) p_est = p_draw;
    if (p_est) {
      bypass = low_light_bypass_next(bypass, Watts(*p_est), Watts(crossover_power),
                                     mgr_params.bypass_enter_ratio,
                                     mgr_params.bypass_exit_ratio);
    }
  }

  void seed_for_budget(double budget) {
    std::size_t chosen = 0;
    for (std::size_t i = 0; i < kLadderSteps; ++i) {
      const double v = ladder_v[i];
      if (!sc_supports(sc, v_s, v)) continue;
      const double pout = proc_max_power(pc, v);
      const double eta = sc_efficiency(sc, v_s, v, pout);
      if (eta <= 0.0) continue;
      if (pout / eta <= budget) chosen = i;
    }
    level = static_cast<long>(chosen);
    ladder_apply();
  }

  void tracker_tick() {
    timer_watched = true;
    if (const auto fall = timer.update(Volts(v_s), Seconds(t));
        fall && fall->value() > 0.0) {
      const double p_in =
          estimate_input_power(Watts(source_draw()), trk.solar_capacitance,
                               trk.v_high, trk.v_low, *fall)
              .value();
      v_target = (*lut_p2v)(p_in);
      seed_for_budget((*lut_p2p)(p_in));
      next_control = t + trk.control_period.value();
      return;
    }
    if (timer.armed()) return;
    if (t < next_control) return;
    next_control = t + trk.control_period.value();
    const double err = v_s - v_target;
    const double dv = v_s - prev_v_trk;
    prev_v_trk = v_s;
    if (const int delta = po_ladder_step(trk, err, dv)) {
      level += delta;
      ladder_apply();
    }
  }

  void start_next_job() {
    --queue;
    if (!plan) {
      // The exact scheduler runs once per node; plan() only exercises the
      // processor model (no counted solves).
      const SystemModel model(sh.ref_cell, sh.ref_reg,
                              *sh.processors[static_cast<std::size_t>(s.index)]);
      plan =
          // hemp-analyzer: allow(hot-path-purity) — once-per-node plan
          SprintScheduler(model).plan(sh.scenario.job_cycles,
                                      sh.scenario.job_deadline,
                                      mgr_params.sprint_factor);
    }
    if (!plan->feasible) {
      ++jobs_missed;
      return;
    }
    sprint_started = t;
    sprint_start_cycles = cycles;
    sprint_bypassed = false;
    mgr = MgrState::kSprinting;
    cmd_path = PowerPath::kRegulated;
    cmd_vdd = plan->slow.vdd.value();
    cmd_freq = plan->slow.frequency.value();
    cmd_run = true;
  }

  void tick_tracking() {
    if (queue > 0) {
      start_next_job();
      return;
    }
    refresh_light_estimate();
    if (bypass) {
      cmd_path = PowerPath::kBypass;
      if (v_d >= pc.vmin && v_d <= pc.vmax) {
        cmd_freq = proc_fmax(pc, v_d);
        cmd_run = true;
      } else {
        cmd_run = false;
      }
      return;
    }
    cmd_path = PowerPath::kRegulated;
    if (!s.min_energy) {
      tracker_tick();
    } else {
      const double p_full = sh.surfaces->mpp.pmpp_at(s.pv_scale, 1.0);
      const double g =
          p_est ? std::clamp(*p_est / std::max(p_full, 1e-9), 0.05, 1.0) : 0.5;
      apply_mep(g);
    }
  }

  void end_sprint(bool completed) {
    if (completed) {
      ++jobs_completed;
    } else {
      ++jobs_missed;
    }
    mgr = MgrState::kRecovering;
    cmd_run = false;
    cmd_path = PowerPath::kRegulated;
  }

  void tick_sprinting() {
    const double done = cycles - sprint_start_cycles;
    const double elapsed = t - sprint_started;
    if (done >= plan->cycles) {
      end_sprint(true);
      return;
    }
    if (elapsed > plan->deadline.value() * 1.5) {
      end_sprint(false);
      return;
    }
    if (sprint_bypassed) {
      if (v_d >= pc.vmin) cmd_freq = proc_fmax(pc, std::min(v_d, pc.vmax));
      return;
    }
    const OperatingPoint& op =
        elapsed < plan->phase_time.value() ? plan->slow : plan->fast;
    cmd_vdd = op.vdd.value();
    cmd_freq = op.frequency.value();
    const bool no_headroom = !sc_supports(sc, v_s, cmd_vdd);
    const bool sagging =
        v_d < cmd_vdd - kSprintSagMargin && elapsed > kSprintSagArmTime;
    if (no_headroom || sagging) {
      sprint_bypassed = true;
      cmd_path = PowerPath::kBypass;
    }
  }

  void tick_recovering() {
    cmd_run = false;
    cmd_path = PowerPath::kRegulated;
    if (v_s >= mgr_params.recover_voltage.value() || queue > 0) enter_tracking();
  }

  HEMP_HOT void controller_eval() {
    timer_watched = false;
    if (bank) update_bank();
    // ManagedPolicyController::on_tick
    if (sh.scenario.job_cycles > 0.0 && t >= next_submit) {
      ++queue;
      ++jobs_submitted;
      next_submit += sh.scenario.job_period.value();
    }
    switch (mgr) {
      case MgrState::kTracking: tick_tracking(); break;
      case MgrState::kSprinting: tick_sprinting(); break;
      case MgrState::kRecovering: tick_recovering(); break;
    }
  }

  // ---------------------------------------------------------------------
  // Event-driven stepping: the shared flat::StepCore, bounded by this
  // controller's timed events and watch levels.
  // ---------------------------------------------------------------------

  /// Step length: the core's ceiling and trace knots, the controller's
  /// timed events, then the core's settle, swing and watch bounds over the
  /// controller's levels (timer window, traced bank, recovery, rail sag).
  HEMP_HOT double choose_dt(double g0) {
    using solver_stats::StepCause;
    double dt = open_dt();
    if (sh.scenario.job_cycles > 0.0) deadline(dt, next_submit);
    if (mgr == MgrState::kTracking) {
      deadline(dt, next_reassess);
      if (timer_watched) deadline(dt, next_control);
      if (queue > 0) {  // a job starts at the very next eval
        dt = dt_min;
        step_cause = StepCause::kDeadline;
      }
    } else if (mgr == MgrState::kSprinting) {
      deadline(dt, sprint_started + 1.5 * plan->deadline.value());
      if (!sprint_bypassed) {
        deadline(dt, sprint_started + plan->phase_time.value());
        deadline(dt, sprint_started + kSprintSagArmTime);
      }
      if (f_eff > 0.0) {
        const double remaining = plan->cycles - (cycles - sprint_start_cycles);
        deadline(dt, t + remaining / f_eff);
      }
    }

    WatchAccum ws, wd;
    if (timer_watched) {
      watch_comparator(ws, timer.v_high(), timer.high_output());
      watch_comparator(ws, timer.v_low(), timer.low_output());
    }
    if (bank) watch_bank(ws, *bank);
    if (mgr == MgrState::kRecovering) {
      ws.level(v_s, mgr_params.recover_voltage.value());
    }
    if (mgr == MgrState::kSprinting && !sprint_bypassed &&
        t - sprint_started > kSprintSagArmTime) {
      wd.level(v_d, cmd_vdd - kSprintSagMargin);
    }
    return close_dt(dt, g0, ws, wd);
  }

  /// Vmpp at the quantized irradiance g_q = k / 100 of the MPPT-error
  /// metric.  Exact-key memo (the PowMemo rule): a hit returns the bits a
  /// fresh sh.vmpp_at call would, so results never change.
  HEMP_HOT double mppt_vmpp(std::size_t k, double g_q) {
    if (k >= vmpp_memo.size()) return sh.surfaces->mpp.vmpp_at(s.pv_scale, g_q);
    double& v = vmpp_memo[k];
    if (std::isnan(v)) v = sh.surfaces->mpp.vmpp_at(s.pv_scale, g_q);
    return v;
  }

  // ---------------------------------------------------------------------
  // Main loop
  // ---------------------------------------------------------------------

  bool done() const { return t >= t_end - 1e-15; }

  /// One event-driven step: controller, then the core's load, dt selection,
  /// integration and metrics, then the MPPT-error metric and time advance.
  HEMP_HOT void step() {
    const double g0 = trace->at(t, cur);
    controller_eval();
    load();
    const double dt = choose_dt(g0);
    integrate(dt, trace->at(t + 0.5 * dt, cur));
    account(dt);
    // MPPT tracking error, dt-weighted (the reference averages uniform
    // waveform samples under the same predicate).
    if (cmd_path == PowerPath::kRegulated && f_eff > 0.0 && g0 >= 0.05) {
      const double k = std::round(g0 * 100.0);
      const double g_q = k / 100.0;
      if (g_q >= 0.05) {
        const double vmpp = mppt_vmpp(static_cast<std::size_t>(k), g_q);
        if (vmpp > 0.0) {
          mppt_num += dt * std::fabs(v_s - vmpp) / vmpp;
          mppt_den += dt;
        }
      }
    }
    p_processor = p_load;
    t += dt;
  }

  /// Day-end flush: comparator-bank edges, step accounting, result build.
  NodeResult finish() {
    if (bank) update_bank();  // final edge flush at day end
    flush_step_counts();

    NodeResult out;
    out.sample = s;
    out.cycles = cycles;
    out.brownouts = brownouts;
    out.timing_faults = timing_faults;
    out.jobs_submitted = jobs_submitted;
    out.jobs_completed = jobs_completed;
    out.jobs_missed = jobs_missed;
    const int adjudicated = jobs_completed + jobs_missed;
    out.deadline_hit_rate =
        adjudicated > 0 ? static_cast<double>(jobs_completed) / adjudicated
                        : 1.0;
    out.mppt_error = mppt_den > 0.0 ? mppt_num / mppt_den : 0.0;
    out.harvested = Joules(harvested);
    out.delivered = Joules(delivered);
    out.halted = Seconds(halted);
    out.energy_per_job =
        jobs_completed > 0 ? Joules(delivered / jobs_completed) : Joules(0.0);
    return out;
  }

  HEMP_HOT NodeResult run() {
    // One-time setup before the stepped loop (builds LUT/ladder buffers).
    // hemp-analyzer: allow(hot-path-purity) — setup edge, not per-step
    on_start();
    while (!done()) step();
    return finish();
  }
};

}  // namespace

NodeResult BatchFleetKernel::run_node(int index) const {
  HEMP_REQUIRE(index >= 0 && index < shared_->scenario.nodes,
               "BatchFleetKernel: node index out of range");
  return NodeRunner(*shared_, static_cast<std::size_t>(index), nullptr).run();
}

NodeResult BatchFleetKernel::run_node_traced(
    int index, std::vector<ComparatorEvent>& events) const {
  HEMP_REQUIRE(index >= 0 && index < shared_->scenario.nodes,
               "BatchFleetKernel: node index out of range");
  return NodeRunner(*shared_, static_cast<std::size_t>(index), &events).run();
}

FleetReport BatchFleetKernel::run(const BatchKernelOptions& opts) const {
  const Shared& sh = *shared_;
  const auto before = solver_stats::snapshot();
  const int n = sh.scenario.nodes;
  std::vector<NodeResult> results(static_cast<std::size_t>(n));
  const int block = std::max(1, opts.block_size);
  if (!opts.parallel || n <= block) {
    for (int i = 0; i < n; ++i) {
      results[static_cast<std::size_t>(i)] = run_node(i);
    }
  } else {
    const std::size_t blocks =
        (static_cast<std::size_t>(n) + static_cast<std::size_t>(block) - 1) /
        static_cast<std::size_t>(block);
    ThreadPool& pool = opts.pool != nullptr ? *opts.pool : ThreadPool::shared();
    parallel_for(pool, blocks, [&](std::size_t b) {
      const int lo = static_cast<int>(b) * block;
      const int hi = std::min(lo + block, n);
      for (int i = lo; i < hi; ++i) {
        results[static_cast<std::size_t>(i)] = run_node(i);
      }
    });
  }
  if (opts.check_no_exact_solves) {
    const auto delta = solver_stats::delta_since(before);
    HEMP_REQUIRE(delta.total() == 0,
                 "BatchFleetKernel: exact solver invoked during a batch run");
  }
  return aggregate(sh.scenario, std::move(results));
}

}  // namespace hemp
