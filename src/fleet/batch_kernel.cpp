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
#include "core/control_plant.hpp"
#include "core/energy_manager.hpp"
#include "core/mpp_tracker.hpp"
#include "core/regulator_selector.hpp"
#include "core/sprint_scheduler.hpp"
#include "core/system_model.hpp"
#include "harvester/iv_curve.hpp"
#include "harvester/pv_cell.hpp"
#include "policy/controllers.hpp"
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
// make_test_chip_at.  Each node runs the core's ManagedPolicyController on a
// flat plant, with the lane's EnergyManagerParams (Shared::mgr); the step
// physics is the shared flat::StepCore (sim/flat_step.hpp).
// ---------------------------------------------------------------------------

using flat::FlatTrace;
using flat::flatten_constant;
using flat::flatten_trace;
using PvFlat = flat::FlatPv;
using WatchAccum = flat::WatchAccum;

const SocConfig kSoc{};

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
  std::vector<FlatTrace> traces;  ///< empty when shared_sky
  /// Kept for sprint planning, which reads the processor model; optional
  /// only so that every slot can be constructed in place by its own work
  /// unit.
  std::vector<std::optional<Processor>> processors;

  /// Shared MPP + terminal-current surfaces and crossover tables, built by
  /// the hemp::flat layer (exact solves, ctor only) or found in the cache.
  std::shared_ptr<const FleetSurfaces> surfaces;
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

  // Everything below is a set of independent work units (DESIGN.md
  // Sec. 6j).  The serial set-up is sizing only: each
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
  // each node's flat plant interpolates them.
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

  shared_ = std::move(shared);
}

BatchFleetKernel::~BatchFleetKernel() = default;

bool BatchFleetKernel::runs(const EnergyPolicy& policy) {
  const std::optional<EnergyManagerParams> params = policy.manager_params();
  // The default DVFS ladder is the only one the equivalence suites cover.
  return params && params->queue_discipline == QueueDiscipline::kFifo &&
         params->tracker.dvfs_steps == MppTrackerParams{}.dvfs_steps;
}

const FleetScenario& BatchFleetKernel::scenario() const {
  return shared_->scenario;
}

namespace {

// ---------------------------------------------------------------------------
// The flat plant: what a node's EnergyManager and MppTrackingController read
// of its physics (the ControlPlant seam, DESIGN.md Sec. 6f), answered from
// the fleet's shared surfaces and the node's flattened cell, regulator and
// processor.  Nothing here runs an exact solve: the sprint plan reads only
// the processor model.  Construction copies nothing and solves nothing;
// Eq. 7's table is built on its first read, which most nodes never reach
// (the tracker reads it only when a threshold-timer window completes).
// ---------------------------------------------------------------------------

class FlatPlant final : public ControlPlant {
 public:
  FlatPlant(const BatchFleetKernel::Shared& sh, std::size_t i)
      : surfaces_(*sh.surfaces),
        s_(sh.samples[i]),
        pv_(sh.pv[i]),
        pc_(sh.proc[i]),
        proc_(*sh.processors[i]),
        v_meas_(sh.mgr.tracker.measure_voltage()) {}

  bool supports(Volts vin, Volts vout) const override {
    return flat::sc_supports(kScFlat, vin.value(), vout.value());
  }
  double efficiency(Volts vin, Volts vout, Watts pout) const override {
    return flat::sc_efficiency(kScFlat, vin.value(), vout.value(), pout.value());
  }
  Volts min_voltage() const override { return Volts(pc_.vmin); }
  Volts max_voltage() const override { return Volts(pc_.vmax); }
  Hertz max_frequency(Volts vdd) const override {
    return Hertz(flat::proc_fmax(pc_, vdd.value()));
  }
  Watts max_power(Volts vdd) const override {
    return Watts(flat::proc_max_power(pc_, vdd.value()));
  }
  Volts mpp_voltage_for(Watts p_in) override {
    ensure_lut();
    return Volts(lut_vmpp_(p_in.value()));
  }
  Watts mpp_power_for(Watts p_in) override {
    ensure_lut();
    return Watts(lut_pmpp_(p_in.value()));
  }
  MaxPowerPoint full_sun_mpp() const override {
    const double v = surfaces_.mpp.vmpp_at(s_.pv_scale, 1.0);
    const double p = surfaces_.mpp.pmpp_at(s_.pv_scale, 1.0);
    return {Volts(v), Amps(p / v), Watts(p)};
  }

  /// The corner's crossover table at the node's temperature and pv scale,
  /// as MPP power; crossovers below the tables' resolution read as none.
  Watts crossover_power() const override {
    const int corner_ix = s_.conditions.corner == ProcessCorner::kSlowSlow ? 0
                          : s_.conditions.corner == ProcessCorner::kTypical ? 1
                                                                            : 2;
    const double g_cross = surfaces_.cross[static_cast<std::size_t>(corner_ix)](
        s_.conditions.temperature_c, s_.pv_scale);
    return Watts(g_cross >= kCrossMinG ? surfaces_.mpp.pmpp_at(s_.pv_scale, g_cross)
                                       : 0.0);
  }

  /// MepOptimizer::holistic's objective over the flat regulator and
  /// processor, with the cell held at the surface's MPP voltage.
  MepPoint holistic_mep(double g) const override {
    const double vmpp = surfaces_.mpp.vmpp_at(s_.pv_scale, g);
    auto objective = [&](double v) {
      if (!flat::sc_supports(kScFlat, vmpp, v)) {
        return std::numeric_limits<double>::infinity();
      }
      const double eta =
          flat::sc_efficiency(kScFlat, vmpp, v, flat::proc_max_power(pc_, v));
      if (eta <= 0.0) return std::numeric_limits<double>::infinity();
      return flat::proc_epc(pc_, v) / eta;
    };
    const auto r = numeric::grid_refine_minimize(
        objective, pc_.vmin, pc_.vmax, {.x_tol = 1e-6, .grid_points = 160});
    MepPoint out;
    if (!std::isfinite(r.value)) return out;
    out.vdd = Volts(r.x);
    out.energy_per_cycle = Joules(r.value);
    out.frequency = Hertz(flat::proc_fmax(pc_, r.x));
    out.feasible = true;
    return out;
  }

  SprintPlan sprint_plan(double cycles, Seconds deadline,
                         double sprint_factor) const override {
    return SprintScheduler::plan(proc_, cycles, deadline, sprint_factor);
  }

 private:
  /// Builds Eq. 7's table unless it exists (a built table has >= 2 knots).
  /// The table is a pure function of the cell, the measurement voltage and
  /// the surfaces, so building it late returns the bits of an eager build.
  void ensure_lut() {
    if (lut_vmpp_.size() > 0) return;
    // hemp-analyzer: allow(hot-path-purity) — first-read table build, once per node: 48 flat Newton solves
    build_lut();
  }

  /// Eq. 7's table: MppLut's knots, sampled at the measurement voltage with
  /// the flat Newton solve, mapped to (Vmpp, Pmpp) by the shared surfaces.
  void build_lut() {
    const double v_meas = v_meas_.value();
    std::vector<double> p, vmpp, pmpp;
    double last_p = -1.0;
    double warm = 0.0;
    for (int i = 0; i < kMppLutSamples; ++i) {
      const double g =
          kMppLutGMin + (kMppLutGMax - kMppLutGMin) * i / (kMppLutSamples - 1);
      const double p_meas = v_meas * pv_current(pv_, v_meas, g, warm);
      if (p_meas <= last_p) continue;
      p.push_back(p_meas);
      vmpp.push_back(surfaces_.mpp.vmpp_at(s_.pv_scale, g));
      pmpp.push_back(surfaces_.mpp.pmpp_at(s_.pv_scale, g));
      last_p = p_meas;
    }
    lut_vmpp_ = PiecewiseLinear(p, vmpp);
    lut_pmpp_ = PiecewiseLinear(p, pmpp);
  }

  const FleetSurfaces& surfaces_;
  const NodeSample& s_;
  const PvFlat& pv_;
  const flat::FlatProc& pc_;
  const Processor& proc_;
  Volts v_meas_;  ///< the tracker's measurement voltage
  PiecewiseLinear lut_vmpp_, lut_pmpp_;  ///< empty until the first read
};

/// The lane's manager parameters in the node's sampled mode.
EnergyManagerParams node_params(const BatchFleetKernel::Shared& sh,
                                const NodeSample& s) {
  EnergyManagerParams params = sh.mgr;
  params.mode = s.min_energy ? ManagerMode::kMinEnergy : ManagerMode::kMaxPerformance;
  return params;
}

// ---------------------------------------------------------------------------
// Per-node runner: the core's managed controller on the flat plant, stepped
// by the shared step core under the controller's step hint, integrated to
// completion one node at a time (everything lives in L1).
// ---------------------------------------------------------------------------

struct NodeRunner : flat::StepCore {
  const BatchFleetKernel::Shared& sh;
  const NodeSample& s;
  std::vector<ComparatorEvent>* events;  ///< traced mode when set

  FlatPlant plant;
  /// EnergyManager + MppTrackingController + the periodic job clock.
  ManagedPolicyController ctl;
  /// What the controller observes (the fields it reads) and its command
  /// latch, copied into the core's cmd_* fields every step.
  SocState state{};
  SocCommand cmd{};

  /// mppt_vmpp's memo, indexed by k = round(g0 * 100); NaN = not yet read.
  std::array<double, 160> vmpp_memo = [] {
    std::array<double, 160> m;
    m.fill(std::numeric_limits<double>::quiet_NaN());
    return m;
  }();
  double mppt_num = 0.0, mppt_den = 0.0;

  // --- SocConfig's solar-node comparator bank (traced mode only) and the
  // edges of its latest update
  std::optional<ComparatorBank> bank;
  std::vector<ComparatorEvent> bank_edges;

  // ctl holds plant's address: a copy or a move would leave it dangling.
  NodeRunner(const NodeRunner&) = delete;
  NodeRunner& operator=(const NodeRunner&) = delete;

  NodeRunner(const BatchFleetKernel::Shared& shared, std::size_t i,
             std::vector<ComparatorEvent>* traced)
      : sh(shared),
        s(shared.samples[i]),
        events(traced),
        plant(shared, i),
        ctl(plant, node_params(shared, s),
            PolicyWorkload{shared.scenario.job_cycles, shared.scenario.job_period,
                           shared.scenario.job_deadline, s.job_phase}) {
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

  void on_start() {
    state.time = Seconds(t);
    state.v_solar = Volts(v_s);
    state.v_dd = Volts(v_d);
    ctl.on_start(state, cmd);
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
  // Event-driven stepping: the shared flat::StepCore, bounded by the
  // controller's timed events and watch levels.
  // ---------------------------------------------------------------------

  /// Step length: the core's ceiling and trace knots, the controller's
  /// step hint (its future deadlines, a decide-now request, its watch
  /// levels) and the traced bank's levels, then the core's settle, swing and
  /// watch bounds.  A deadline the hint marks due has passed and bounds
  /// nothing here.
  HEMP_HOT double choose_dt(double g0) {
    state.frequency = Hertz(f_eff);  // the clock the hint's sprint end reads
    SocStepHint hint;
    hint.now = t;
    ctl.step_hint(state, hint);
    if (!hint.event_driven) {  // one reference tick, as the fast path takes
      step_cause = solver_stats::StepCause::kDeadline;
      return dt_min;
    }
    double dt = open_dt();
    deadline(dt, hint.next_deadline_s);
    if (hint.decide_now) {  // a job starts at the next evaluation
      dt = dt_min;
      step_cause = solver_stats::StepCause::kDeadline;
    }

    WatchAccum ws, wd;
    watch_hint(ws, wd, hint);
    if (bank) watch_bank(ws, *bank);
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

  /// One event-driven step: the controller, then the core's load, dt
  /// selection, integration and metrics, then the MPPT-error metric and
  /// time advance.
  HEMP_HOT void step() {
    const double g0 = trace->at(t, cur);
    if (bank) update_bank();
    state.time = Seconds(t);
    state.v_solar = Volts(v_s);
    state.v_dd = Volts(v_d);
    state.cycles_retired = cycles;
    ctl.on_tick(state, cmd);
    cmd_path = cmd.path;
    cmd_vdd = cmd.vdd_target.value();
    cmd_freq = cmd.frequency.value();
    cmd_run = cmd.run;
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
    state.p_processor = Watts(p_load);  // the load the next evaluation sees
    t += dt;
  }

  /// Day-end flush: comparator-bank edges, step accounting, result build.
  NodeResult finish() {
    if (bank) update_bank();  // final edge flush at day end
    flush_step_counts();

    const PolicyJobStats jobs = ctl.job_stats();
    NodeResult out;
    out.sample = s;
    out.cycles = cycles;
    out.brownouts = brownouts;
    out.timing_faults = timing_faults;
    out.jobs_submitted = jobs.submitted;
    out.jobs_completed = jobs.completed;
    out.jobs_missed = jobs.missed;
    const int adjudicated = jobs.completed + jobs.missed;
    out.deadline_hit_rate =
        adjudicated > 0 ? static_cast<double>(jobs.completed) / adjudicated
                        : 1.0;
    out.mppt_error = mppt_den > 0.0 ? mppt_num / mppt_den : 0.0;
    out.harvested = Joules(harvested);
    out.delivered = Joules(delivered);
    out.halted = Seconds(halted);
    out.energy_per_job =
        jobs.completed > 0 ? Joules(delivered / jobs.completed) : Joules(0.0);
    return out;
  }

  HEMP_HOT NodeResult run() {
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
