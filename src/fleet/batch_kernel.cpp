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
#include "sim/soc_system.hpp"
#include "trace/generators.hpp"

namespace hemp {

namespace {

// ---------------------------------------------------------------------------
// Flattened model constants.  Every value mirrors the corresponding component
// default (SpeedModelParams, PowerModelParams, SocConfig, EnergyManagerParams,
// MppTrackerParams); the batch kernel is an integrator over the shared
// hemp::flat closed forms, so the constants must stay in sync with those
// structs.  The fleet never overrides them (fleet_sim.cpp builds every node
// from the defaults plus the sampled scale factors).  PV, switched-cap, and
// trace flattening live in sim/flat_model.{hpp,cpp} now, shared with the
// single-node fast path.
// ---------------------------------------------------------------------------

using flat::FlatTrace;
using flat::flatten_constant;
using flat::flatten_trace;
using PvFlat = flat::FlatPv;
using ProcFlat = flat::FlatProc;
using WatchAccum = flat::WatchAccum;

// Processor speed/power model (typical corner; corners shift copies).
constexpr double kAlpha = 1.05;
constexpr double kVref = 1.0;
constexpr double kFref = 1.2e9;
constexpr double kVthBase = 0.30;
constexpr double kNearThMargin = 0.06;
constexpr double kSubSlope = 0.05;
constexpr double kVminProc = 0.20;
constexpr double kVmaxProc = 1.2;
constexpr double kCeff = 45e-12;
constexpr double kLeakBase = 0.38e-3;
constexpr double kDibl = 0.4;

// SoC node and power-path physics.
constexpr double kVSolarStart = 1.2;
constexpr double kVddStart = 0.5;
constexpr double kTau = 50e-6;      // regulation_time_constant
constexpr double kBypassR = 1.0;    // BypassParams::on_resistance

// Energy manager / MPP tracker policy constants.
constexpr double kRecoverV = 1.05;
constexpr double kBypassEnterRatio = 0.9;
constexpr double kBypassExitRatio = 1.2;
constexpr double kReassessPeriod = 2e-3;
constexpr double kSprintFactor = 0.2;
constexpr double kControlPeriod = 500e-6;
constexpr double kDeadband = 0.02;
constexpr double kSlewTol = 0.002;
constexpr double kVHigh = 1.0;
constexpr double kVLow = 0.9;
constexpr double kTrackerCap = 47e-6;  // the tracker's *assumed* C (Eq. 7)
constexpr int kLadderSteps = 48;
constexpr double kVddCeiling = 0.8;
constexpr double kSagMargin = 0.05;
constexpr double kSagEnableTime = 1e-4;

// Event-driven stepping knobs (shared defaults; see flat_model.hpp).
constexpr double kDtMax = flat::kDtMax;
constexpr double kRailBand = flat::kRailBand;
constexpr double kRailSettleCap = flat::kRailSettleFactor * kTau;
constexpr double kBypassDvCap = flat::kBypassDvCap;
constexpr double kCompHalfHyst = flat::kCompHalfHyst;
constexpr double kVminHysteresis = flat::kVminHysteresis;
constexpr double kWatchVFloor = flat::kWatchVFloor;

// Surface resolution (shared across the fleet; exact solves, ctor only).
constexpr int kSurfaceSKnots = 13;
constexpr int kSurfaceGKnots = 61;
constexpr double kSurfaceGMin = 0.005;
constexpr double kSurfaceGMax = 1.25;
constexpr int kCrossTempKnots = 6;
constexpr int kCrossSKnots = 7;
constexpr double kCrossMinG = 0.045;  // below resolution: "no crossover"

// Nodes per constructor work unit (sampling, trace flatten + coarsen, and
// per-node constants); measured in DESIGN.md Sec. 6j.
constexpr std::size_t kCtorNodeBlock = 16;

// Terminal-current surface i(v, g): the stepped loop's only cell-model
// evaluation (bilinear in (v, g), scale-blended across two pv-scale slices).
// 1.7 V covers the largest open-circuit voltage any sampled cell reaches;
// the v pitch (~11 mV) keeps the bilinear error on the diode knee (curvature
// scale n*Vt ~ 116 mV) well under a percent.
constexpr int kIvVKnots = 160;
constexpr double kIvVMax = 1.7;
constexpr int kIvGKnots = 64;

// MppLut surrogate sampling (mirrors MppLut's defaults).
constexpr int kLutSamples = 48;
constexpr double kLutGMin = 0.02;
constexpr double kLutGMax = 1.2;

// ---------------------------------------------------------------------------
// Flattened component math: hemp::flat mirrors, specialized to the fleet's
// fixed component defaults.
// ---------------------------------------------------------------------------

// Every fleet node shares the default switched-cap regulator.
const flat::FlatSc kScFlat = flat::make_flat_sc(SwitchedCapParams{});

/// Per-node PV constants (only Isc scales with pv_scale; same Voc/Rs/Rsh).
PvFlat make_pv_flat(double pv_scale) {
  PvCellParams p;
  p.isc_full_sun = p.isc_full_sun * pv_scale;
  return flat::make_flat_pv(p);
}

/// Regulator envelope: mirrors Regulator::supports via output_range.
bool sc_supports(double vin, double vout) {
  return flat::sc_supports(kScFlat, vin, vout);
}

double sc_efficiency(double vin, double vout, double pout) {
  return flat::sc_efficiency(kScFlat, vin, vout, pout);
}

/// Per-node processor constants resolved from the sampled corner/temperature
/// exactly as make_test_chip_at + SpeedModel's constructor do.
ProcFlat make_proc_flat(ProcessCorner corner, double temperature_c) {
  double vth_shift = 0.0;
  double drive_scale = 1.0;
  double leak_scale = 1.0;
  switch (corner) {
    case ProcessCorner::kSlowSlow:
      vth_shift = +0.04;
      drive_scale = 0.85;
      leak_scale = 0.4;
      break;
    case ProcessCorner::kTypical:
      break;
    case ProcessCorner::kFastFast:
      vth_shift = -0.04;
      drive_scale = 1.15;
      leak_scale = 2.5;
      break;
  }
  const double dt = temperature_c - 25.0;
  vth_shift -= 1e-3 * dt;
  leak_scale *= std::exp2(dt / 30.0);

  ProcFlat p;
  p.vth = kVthBase + vth_shift;
  p.alpha = kAlpha;
  const double fref = kFref * drive_scale;
  p.gain = fref * kVref / std::pow(kVref - p.vth, kAlpha);
  p.onset = p.vth + kNearThMargin;
  p.f_onset = p.gain * std::pow(p.onset - p.vth, kAlpha) / p.onset;
  p.sub_slope = kSubSlope;
  p.vmin = kVminProc;
  p.vmax = kVmaxProc;
  p.ceff = kCeff;
  p.leak_base = kLeakBase * leak_scale;
  p.dibl = kDibl;
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

PvCell make_scaled_cell(double pv_scale) {
  PvCellParams p;
  p.isc_full_sun = p.isc_full_sun * pv_scale;
  return PvCell(p);
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

  /// Bypass hysteresis window every lane uses.  The defaults are the legacy
  /// manager constants; a forced scenario policy with a batch spec overrides
  /// them fleet-wide (per-node policies always agree: the scenario either
  /// forces one policy or runs the legacy mix, which shares this window).
  double bypass_enter = kBypassEnterRatio;
  double bypass_exit = kBypassExitRatio;

  // SoA node-parameter plane (index-parallel arrays).
  std::vector<NodeSample> samples;
  std::vector<PvFlat> pv;
  std::vector<ProcFlat> proc;
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

  [[nodiscard]] double vmpp_at(double s, double g) const {
    return surfaces->mpp.vmpp_at(s, g);
  }

  [[nodiscard]] double pmpp_at(double s, double g) const {
    return surfaces->mpp.pmpp_at(s, g);
  }
};

BatchFleetKernel::BatchFleetKernel(FleetScenario scenario,
                                   const BatchKernelOptions& opts) {
  auto shared = std::make_shared<Shared>();
  Shared& sh = *shared;
  sh.scenario = std::move(scenario);
  sh.scenario.validate();
  const FleetScenario& sc = sh.scenario;

  // --- Forced scenario policy: only policies with a batch spec (an
  // EnergyManager parameterization the flattened lane implements) can ride
  // this kernel; everything else must use the reference engine. -------------
  std::optional<BatchPolicySpec> forced_spec;
  if (!sc.policy.empty()) {
    const EnergyPolicy& policy = PolicyRegistry::global().at(sc.policy);
    forced_spec = policy.batch_spec();
    if (!forced_spec) {
      throw ModelError("BatchFleetKernel: policy '" + sc.policy +
                       "' has no batch-kernel lane; run it on the reference "
                       "kernel (fleetsim --kernel reference)");
    }
    sh.bypass_enter = forced_spec->bypass_enter_ratio;
    sh.bypass_exit = forced_spec->bypass_exit_ratio;
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
                                        kSurfaceGMax, kSurfaceGKnots);
    fresh->iv = flat::size_iv_surface(linspace(s_lo, s_hi, kSurfaceSKnots),
                                      kIvVMax, kIvVKnots, kSurfaceGMax, kIvGKnots);
  }

  // --- Low-light crossover tables: exact RegulatorSelector bisection per
  // corner over a coarse (temperature, pv_scale) grid, one unit per cell;
  // interpolated per node once every cell is in.
  const std::vector<double> temp_knots = linspace(-20.0, 85.0, kCrossTempKnots);
  const std::vector<double> cross_s_knots = linspace(s_lo, s_hi, kCrossSKnots);
  // Corner order: the crossover tables' index and the weights' draw order.
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
    const PvCell pv_cell = make_scaled_cell(cross_s_knots[j]);
    const SwitchedCapRegulator reg;
    const Processor proc = make_test_chip_at({kCorners[c], temp_knots[i]});
    const SystemModel model(pv_cell, reg, proc);
    RegulatorSelector selector(model);
    cross_vals[c][k] = selector.crossover_irradiance().value_or(0.0);
  };

  // --- Node identity sampling: exactly FleetSimulator's draw order, so the
  // per-node RNG stream continues into the same trace draws afterwards. -----
  sh.shared_sky = sc.shared_trace || sc.trace_kind == TraceKind::kCsv ||
                  sc.trace_kind == TraceKind::kConstant;
  const auto make_trace = [&sc](Rng& rng) -> IrradianceTrace {
    switch (sc.trace_kind) {
      case TraceKind::kConstant:
        return IrradianceTrace::constant(sc.constant_g);
      case TraceKind::kDiurnal: {
        DiurnalArcParams params;
        params.day_length = sc.day_length;
        return diurnal_arc(rng, params);
      }
      case TraceKind::kClouds: {
        CloudFieldParams params;
        params.day.day_length = sc.day_length;
        const double stretch = sc.day_length.value() / 0.25;
        params.mean_gap = Seconds(0.03 * stretch);
        params.mean_duration = Seconds(0.01 * stretch);
        return cloud_field(rng, params);
      }
      case TraceKind::kIndoor: {
        IndoorDutyParams params;
        params.duration = sc.day_length;
        const double stretch = sc.day_length.value() / 0.25;
        params.mean_on = Seconds(0.04 * stretch);
        params.mean_off = Seconds(0.02 * stretch);
        return indoor_duty(rng, params);
      }
      case TraceKind::kCsv:
        return IrradianceTrace::from_csv(sc.trace_csv);
    }
    throw ModelError("BatchFleetKernel: unknown trace kind");
  };

  // Adaptive knot coarsening: every flattened trace gives up knots until the
  // cumulative absorbed-irradiance perturbation hits the scenario's per-day
  // budget (see flat::FlatTrace::coarsen).  Each surviving knot is a step the
  // event-driven loop must take, so this directly buys throughput.
  const double coarsen_budget = sc.trace_coarsen_eps * sc.day_length.value();
  const auto build_sky = [&] {
    Rng sky_rng = Rng(sc.seed).fork(~0ULL);
    const IrradianceTrace trace = make_trace(sky_rng);
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
    s.index = static_cast<int>(i);
    s.pv_scale = rng.uniform(sc.pv_scale_min, sc.pv_scale_max);
    s.solar_capacitance =
        Farads(std::exp(rng.uniform(std::log(sc.solar_cap_min.value()),
                                    std::log(sc.solar_cap_max.value()))));
    s.conditions.corner = kCorners[rng.weighted(sc.corner_weights.data(),
                                                sc.corner_weights.size())];
    s.conditions.temperature_c =
        std::clamp(rng.normal(sc.temperature_mean_c, sc.temperature_sigma_c),
                   -20.0, 85.0);
    s.min_energy = rng.uniform() < sc.min_energy_fraction;
    // The Bernoulli draw above must always happen — the per-node stream
    // continues into the phase/trace draws — but a forced policy overrides
    // the sampled mode (the effective mode lands in the report's CSV).
    if (forced_spec) s.min_energy = forced_spec->min_energy;
    s.job_phase = sc.job_cycles > 0.0
                      ? Seconds(rng.uniform(0.0, sc.job_period.value()))
                      : Seconds(0.0);
    if (!sh.shared_sky) {
      sh.traces[i] = flatten_trace(make_trace(rng), sc.day_length.value());
      if (coarsen_budget > 0.0) sh.traces[i].coarsen(coarsen_budget);
    }

    sh.pv[i] = make_pv_flat(s.pv_scale);
    sh.proc[i] = make_proc_flat(s.conditions.corner, s.conditions.temperature_c);
    sh.processors[i].emplace(make_test_chip_at(s.conditions));
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
        g_cross >= kCrossMinG ? sh.pmpp_at(s.pv_scale, g_cross) : 0.0;
    // A zero crossover power is exactly how the manager encodes "bypass off".
    if (forced_spec && !forced_spec->bypass_enabled) sh.crossover_power[i] = 0.0;
  }

  shared_ = std::move(shared);
}

BatchFleetKernel::~BatchFleetKernel() = default;

const FleetScenario& BatchFleetKernel::scenario() const {
  return shared_->scenario;
}

namespace {

// ---------------------------------------------------------------------------
// Per-node lane: the full controller + physics state, integrated to
// completion one node at a time (everything lives in registers / L1).
// ---------------------------------------------------------------------------

enum class MgrState { kTracking, kSprinting, kRecovering };

struct MepSlot {
  bool computed = false;
  bool feasible = false;
  double vdd = 0.0;
  double freq = 0.0;
};

struct SprintPlanFlat {
  bool computed = false;
  bool feasible = false;
  double cycles = 0.0;
  double deadline = 0.0;
  double phase_time = 0.0;
  double slow_v = 0.0, slow_f = 0.0;
  double fast_v = 0.0, fast_f = 0.0;
};

struct NodeRunner {
  const BatchFleetKernel::Shared& sh;
  const NodeSample& s;
  const PvFlat& pv;
  const ProcFlat& pc;
  const FlatTrace& trace;
  double c_solar;   ///< node storage capacitance
  double c_vdd;     ///< rail capacitance
  double day;       ///< day length
  double dt_min;    ///< scenario time_step: the reference tick = event slack
  double crossover_power;
  std::vector<BatchComparatorEvent>* events = nullptr;  // traced mode

  // --- physics state
  double t = 0.0;
  double v_s = kVSolarStart;
  double v_d = kVddStart;
  std::size_t cur = 0;       ///< trace cursor

  // --- command latch (SocCommand)
  PowerPath cmd_path = PowerPath::kRegulated;
  double cmd_vdd = kVddStart;
  double cmd_freq = 100e6;
  bool cmd_run = true;

  // --- energy manager
  MgrState mgr = MgrState::kTracking;
  bool bypass = false;
  double prev_v_mgr = kVSolarStart;
  double next_reassess = 0.0;
  bool has_pest = false;
  double p_est = 0.0;

  // --- sprint
  SprintPlanFlat plan{};
  bool sprinting = false;
  double sprint_started = 0.0;
  double sprint_start_cycles = 0.0;
  bool sprint_bypassed = false;

  // --- MPP tracker
  double v_target = 0.0;
  long level = 0;
  double next_control = 0.0;
  double prev_v_trk = 0.0;
  bool th_high_out = false, th_low_out = false;
  bool th_armed = false;
  double th_armed_at = 0.0;
  bool timer_watched = false;  ///< tracker ran this eval -> watch its levels

  // --- periodic jobs
  int queue = 0;
  double next_submit = 0.0;
  int jobs_submitted = 0, jobs_completed = 0, jobs_missed = 0;

  // --- run/fault bookkeeping
  double p_processor = 0.0;  ///< previous step's load (controller observable)
  double f_eff = 0.0;
  bool can_run = false;
  bool step_sc_ok = false;  ///< sc_supports(v_s, cmd_vdd), frozen per step
  bool was_running = false;
  // Exact-key memos for the stepped loop's libm calls.  At steady state the
  // rail voltage, effective frequency, and episode tick count repeat with
  // bit-identical inputs step after step, so the std::pow / std::exp calls
  // in proc_fmax, proc_power, and the rail episode are mostly cache hits; a
  // key mismatch recomputes, so results never change.
  flat::PowMemo pow_memo{};
  double fmax_key = std::numeric_limits<double>::quiet_NaN();
  double fmax_val = 0.0;
  double pload_key_v = std::numeric_limits<double>::quiet_NaN();
  double pload_key_f = 0.0;
  double pload_val = 0.0;
  bool fault_latch = false;
  bool vmin_latch = false;

  // --- totals
  double cycles = 0.0;
  double harvested = 0.0;
  double delivered = 0.0;
  double halted = 0.0;
  int brownouts = 0;
  int timing_faults = 0;
  double mppt_num = 0.0, mppt_den = 0.0;

  // --- step accounting (flushed to solver_stats once per node run)
  solver_stats::StepCause step_cause = solver_stats::StepCause::kDeadline;
  std::array<std::uint64_t, solver_stats::kStepCauseCount> step_counts{};

  // --- caches
  std::array<MepSlot, 32> mep_cache{};
  std::optional<PiecewiseLinear> lut_p2v{}, lut_p2p{};
  std::array<double, kLadderSteps> ladder_v{}, ladder_f{};

  // --- solar-node comparator bank (traced mode only)
  std::array<bool, 8> bank_out{};
  std::size_t bank_size = 0;

  // --- terminal-current surface view for this node (set in on_start)
  flat::IvSurface::Bound iv{};

  // ---------------------------------------------------------------------
  // Setup
  // ---------------------------------------------------------------------

  /// Stepped-loop cell evaluation via the node's bound surface view.
  HEMP_HOT double cell_i(double v, double g, double* didv = nullptr) const {
    return iv.cell_i(v, g, didv);
  }

  void build_ladder() {
    const double lo = kVminProc;
    const double hi = std::min(kVddCeiling, kVmaxProc);
    for (int i = 0; i < kLadderSteps; ++i) {
      const double v = lo + (hi - lo) * i / (kLadderSteps - 1);
      ladder_v[static_cast<std::size_t>(i)] = v;
      ladder_f[static_cast<std::size_t>(i)] = proc_fmax(pc, v);
    }
  }

  /// MppLut surrogate: sample the cell at the mid-threshold voltage with the
  /// fast Newton solve, map power -> (Vmpp, Pmpp) via the shared surfaces.
  void build_lut() {
    const double v_meas = 0.5 * (kVHigh + kVLow);
    std::vector<double> p, vmpp, pmpp;
    double last_p = -1.0;
    double warm = 0.0;
    for (int i = 0; i < kLutSamples; ++i) {
      const double g = kLutGMin + (kLutGMax - kLutGMin) * i / (kLutSamples - 1);
      const double p_meas = v_meas * pv_current(pv, v_meas, g, warm);
      if (p_meas <= last_p) continue;
      p.push_back(p_meas);
      vmpp.push_back(sh.vmpp_at(s.pv_scale, g));
      pmpp.push_back(sh.pmpp_at(s.pv_scale, g));
      last_p = p_meas;
    }
    lut_p2v.emplace(p, vmpp);
    lut_p2p.emplace(p, pmpp);
  }

  void reset_timer(double v) {
    th_high_out = v > kVHigh;
    th_low_out = v > kVLow;
    th_armed = false;
  }

  void on_start() {
    iv = sh.surfaces->iv.bind(s.pv_scale);
    build_ladder();
    build_lut();
    next_submit = s.job_phase.value();
    // MppTrackingController::on_start
    v_target = sh.vmpp_at(s.pv_scale, 1.0);
    reset_timer(v_s);
    level = 0;
    cmd_path = PowerPath::kRegulated;
    cmd_run = true;
    ladder_apply();
    // EnergyManager::on_start
    prev_v_mgr = v_s;
    enter_tracking();
    if (events != nullptr) {
      bank_size = std::min<std::size_t>(8, 3);
      bank_out = {};
      // SocConfig default bank {1.1, 1.0, 0.9}; reset at the start voltage.
      for (std::size_t i = 0; i < bank_size; ++i) {
        bank_out[i] = v_s > bank_threshold(i);
      }
    }
  }

  [[nodiscard]] static double bank_threshold(std::size_t i) {
    constexpr double kBank[3] = {1.1, 1.0, 0.9};
    return kBank[i];
  }

  void update_bank() {
    for (std::size_t i = 0; i < bank_size; ++i) {
      const double th = bank_threshold(i);
      if (!bank_out[i] && v_s > th + kCompHalfHyst) {
        bank_out[i] = true;
        // hemp-analyzer: allow(hot-path-purity) — traced diagnostic mode
        events->push_back({static_cast<int>(i), true, Seconds(t)});
      } else if (bank_out[i] && v_s < th - kCompHalfHyst) {
        bank_out[i] = false;
        // hemp-analyzer: allow(hot-path-purity) — traced diagnostic mode
        events->push_back({static_cast<int>(i), false, Seconds(t)});
      }
    }
  }

  // ---------------------------------------------------------------------
  // Controller (flattened PeriodicJobController + EnergyManager +
  // MppTrackingController; branch order mirrors the reference sources).
  // ---------------------------------------------------------------------

  void ladder_apply() {
    level = std::clamp<long>(level, 0, kLadderSteps - 1);
    cmd_vdd = ladder_v[static_cast<std::size_t>(level)];
    cmd_freq = ladder_f[static_cast<std::size_t>(level)];
  }

  void ladder_step(int delta) {
    level += delta;
    ladder_apply();
  }

  void apply_mep(double g_estimate) {
    const int bucket = static_cast<int>(g_estimate * 20.0 + 0.5);
    MepSlot& slot = mep_cache[static_cast<std::size_t>(
        std::clamp(bucket, 0, 31))];
    if (!slot.computed) {
      slot.computed = true;
      const double g = std::max(bucket, 1) / 20.0;
      const double vmpp = sh.vmpp_at(s.pv_scale, g);
      auto objective = [&](double v) {
        if (!sc_supports(vmpp, v)) {
          return std::numeric_limits<double>::infinity();
        }
        const double eta = sc_efficiency(vmpp, v, proc_max_power(pc, v));
        if (eta <= 0.0) return std::numeric_limits<double>::infinity();
        return proc_epc(pc, v) / eta;
      };
      // Memoized: at most 32 buckets per node-day reach this solve.
      // hemp-analyzer: allow(hot-path-purity) — cold memoized MEP branch
      const auto r = numeric::grid_refine_minimize(
          objective, kVminProc, kVmaxProc, {.x_tol = 1e-6, .grid_points = 160});
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
    next_reassess = t + kReassessPeriod;
    const double dv = std::fabs(v_s - prev_v_mgr);
    prev_v_mgr = v_s;
    if (dv > 0.01) return;
    double p_draw = p_processor;
    if (!bypass && p_draw > 0.0 && sc_supports(v_s, cmd_vdd)) {
      const double eta = sc_efficiency(v_s, cmd_vdd, p_draw);
      if (eta > 0.0) p_draw /= eta;
    }
    if (p_draw > 0.0) {
      p_est = p_draw;
      has_pest = true;
    }
    if (has_pest && crossover_power > 0.0) {
      if (!bypass && p_est < sh.bypass_enter * crossover_power) {
        bypass = true;
      } else if (bypass && p_est > sh.bypass_exit * crossover_power) {
        bypass = false;
      }
    }
  }

  void seed_for_budget(double budget) {
    std::size_t chosen = 0;
    for (std::size_t i = 0; i < kLadderSteps; ++i) {
      const double v = ladder_v[i];
      if (!sc_supports(v_s, v)) continue;
      const double pout = proc_max_power(pc, v);
      const double eta = sc_efficiency(v_s, v, pout);
      if (eta <= 0.0) continue;
      if (pout / eta <= budget) chosen = i;
    }
    level = static_cast<long>(chosen);
    ladder_apply();
  }

  /// ThresholdTimer::update flattened; returns the measured fall interval.
  std::optional<double> timer_update() {
    bool high_fall = false, high_rise = false, low_fall = false;
    if (!th_high_out && v_s > kVHigh + kCompHalfHyst) {
      th_high_out = true;
      high_rise = true;
    } else if (th_high_out && v_s < kVHigh - kCompHalfHyst) {
      th_high_out = false;
      high_fall = true;
    }
    if (!th_low_out && v_s > kVLow + kCompHalfHyst) {
      th_low_out = true;
    } else if (th_low_out && v_s < kVLow - kCompHalfHyst) {
      th_low_out = false;
      low_fall = true;
    }
    if (high_fall) {
      th_armed = true;
      th_armed_at = t;
    } else if (high_rise) {
      th_armed = false;
    }
    if (low_fall && th_armed) {
      th_armed = false;
      const double interval = t - th_armed_at;
      if (interval > 0.0) return interval;
    }
    return std::nullopt;
  }

  void tracker_tick() {
    timer_watched = true;
    if (const auto fall = timer_update(); fall && *fall > 0.0) {
      double p_draw = p_processor;
      if (sc_supports(v_s, cmd_vdd) && p_draw > 0.0) {
        const double eta = sc_efficiency(v_s, cmd_vdd, p_draw);
        if (eta > 0.0) p_draw /= eta;
      }
      // Eq. 7: subtract the cap's discharge contribution over the interval.
      const double discharge =
          0.5 * kTrackerCap * (kVHigh * kVHigh - kVLow * kVLow) / *fall;
      const double p_in = std::max(p_draw - discharge, 0.0);
      v_target = (*lut_p2v)(p_in);
      seed_for_budget((*lut_p2p)(p_in));
      next_control = t + kControlPeriod;
      return;
    }
    if (th_armed) return;
    if (t < next_control) return;
    next_control = t + kControlPeriod;
    const double err = v_s - v_target;
    const double dv = v_s - prev_v_trk;
    prev_v_trk = v_s;
    if (err > kDeadband && dv > -kSlewTol) {
      ladder_step(+1);
    } else if (err < -kDeadband && dv < kSlewTol) {
      ladder_step(-1);
    }
  }

  void start_next_job() {
    --queue;
    if (!plan.computed) {
      plan.computed = true;
      // Every fleet job is identical, so the exact scheduler runs once per
      // node; plan() only exercises the processor model (no counted solves).
      const SystemModel model(sh.ref_cell, sh.ref_reg,
                              *sh.processors[static_cast<std::size_t>(s.index)]);
      SprintScheduler scheduler(model);
      const SprintPlan p =
          // hemp-analyzer: allow(hot-path-purity) — once-per-node plan
          scheduler.plan(sh.scenario.job_cycles, sh.scenario.job_deadline,
                         kSprintFactor);
      plan.feasible = p.feasible;
      if (p.feasible) {
        plan.cycles = p.cycles;
        plan.deadline = p.deadline.value();
        plan.phase_time = p.phase_time.value();
        plan.slow_v = p.slow.vdd.value();
        plan.slow_f = p.slow.frequency.value();
        plan.fast_v = p.fast.vdd.value();
        plan.fast_f = p.fast.frequency.value();
      }
    }
    if (!plan.feasible) {
      ++jobs_missed;
      return;
    }
    sprinting = true;
    sprint_started = t;
    sprint_start_cycles = cycles;
    sprint_bypassed = false;
    mgr = MgrState::kSprinting;
    cmd_path = PowerPath::kRegulated;
    cmd_vdd = plan.slow_v;
    cmd_freq = plan.slow_f;
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
      if (v_d >= kVminProc && v_d <= kVmaxProc) {
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
      const double g =
          has_pest
              ? std::clamp(p_est / std::max(sh.pmpp_at(s.pv_scale, 1.0), 1e-9),
                           0.05, 1.0)
              : 0.5;
      apply_mep(g);
    }
  }

  void end_sprint(bool completed) {
    if (completed) {
      ++jobs_completed;
    } else {
      ++jobs_missed;
    }
    sprinting = false;
    mgr = MgrState::kRecovering;
    cmd_run = false;
    cmd_path = PowerPath::kRegulated;
  }

  void tick_sprinting() {
    const double done = cycles - sprint_start_cycles;
    const double elapsed = t - sprint_started;
    if (done >= plan.cycles) {
      end_sprint(true);
      return;
    }
    if (elapsed > plan.deadline * 1.5) {
      end_sprint(false);
      return;
    }
    if (sprint_bypassed) {
      if (v_d >= kVminProc) {
        // The reference would fault above Vmax; the shared node can overshoot
        // it under strong sun, so the kernel clamps (documented divergence).
        cmd_freq = proc_fmax(pc, std::min(v_d, kVmaxProc));
      }
      return;
    }
    const bool slow_phase = elapsed < plan.phase_time;
    const double op_v = slow_phase ? plan.slow_v : plan.fast_v;
    cmd_vdd = op_v;
    cmd_freq = slow_phase ? plan.slow_f : plan.fast_f;
    const bool no_headroom = !sc_supports(v_s, op_v);
    const bool sagging = v_d < op_v - kSagMargin && elapsed > kSagEnableTime;
    if (no_headroom || sagging) {
      sprint_bypassed = true;
      cmd_path = PowerPath::kBypass;
    }
  }

  void tick_recovering() {
    cmd_run = false;
    cmd_path = PowerPath::kRegulated;
    if (v_s >= kRecoverV || queue > 0) enter_tracking();
  }

  HEMP_HOT void controller_eval() {
    timer_watched = false;
    if (events != nullptr) update_bank();
    // PeriodicJobController::on_tick
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
  // Event-driven stepping
  // ---------------------------------------------------------------------

  void solar_watches(WatchAccum& w) const {
    if (timer_watched) {
      w.level(v_s, th_high_out ? kVHigh - kCompHalfHyst : kVHigh + kCompHalfHyst);
      w.level(v_s, th_low_out ? kVLow - kCompHalfHyst : kVLow + kCompHalfHyst);
    }
    if (events != nullptr) {
      for (std::size_t i = 0; i < bank_size; ++i) {
        const double th = bank_threshold(i);
        w.level(v_s, bank_out[i] ? th - kCompHalfHyst : th + kCompHalfHyst);
      }
    }
    if (mgr == MgrState::kRecovering) w.level(v_s, kRecoverV);
    if (cmd_path == PowerPath::kRegulated) {
      // Ratio boundaries: eta and the supports envelope change across them.
      // The boundary set moves only when the commanded rail does, so the
      // divides are cached across steps (ratio_bounds_for).
      const std::array<double, flat::kScMaxRatios>& rb =
          ratio_bounds_for(cmd_vdd);
      for (std::size_t k = 0; k < kScFlat.n_ratios; ++k) {
        w.level(v_s, rb[k]);
      }
    }
  }

  // Cached (cmd_vdd + margin) / ratio boundary levels for solar_watches.
  mutable double ratio_bounds_vdd = std::numeric_limits<double>::quiet_NaN();
  mutable std::array<double, flat::kScMaxRatios> ratio_bounds{};

  const std::array<double, flat::kScMaxRatios>& ratio_bounds_for(
      double vdd) const {
    if (vdd != ratio_bounds_vdd) {
      for (std::size_t k = 0; k < kScFlat.n_ratios; ++k) {
        ratio_bounds[k] = (vdd + kScFlat.margin) / kScFlat.ratios[k];
      }
      ratio_bounds_vdd = vdd;
    }
    return ratio_bounds;
  }

  void rail_watches(WatchAccum& w) const {
    if (cmd_run) {
      const double vmin_trip =
          vmin_latch && cmd_path == PowerPath::kBypass
              ? kVminProc + kVminHysteresis
              : kVminProc;
      w.level(v_d, vmin_trip);
    }
    if (cmd_path == PowerPath::kBypass) w.level(v_d, kVmaxProc);
    if (mgr == MgrState::kSprinting && !sprint_bypassed &&
        t - sprint_started > kSagEnableTime) {
      w.level(v_d, cmd_vdd - kSagMargin);
    }
  }

  /// Choose the step length: jump to the next timed controller event, capped
  /// by the analytic no-late-detection bounds dt <= C * dist / i_max for both
  /// nodes (within a step every voltage is monotone — autonomous scalar
  /// dynamics under constant step inputs — so endpoint sampling can never
  /// miss a crossing; the bound keeps detection latency inside one
  /// comparator hysteresis band).
  HEMP_HOT double choose_dt(double g0, double p_load) {
    using solver_stats::StepCause;
    step_cause = StepCause::kDeadline;
    // One regulator-envelope check per step: v_s and cmd_vdd are frozen
    // until the epilogue, so the settle block, the watch bounds, and the
    // integration pre-pass can all share it.
    step_sc_ok = sc_supports(v_s, cmd_vdd);
    double dt = std::min(day - t, can_run ? flat::kRunDtCap : kDtMax);
    {
      const double knot = trace.next_knot(t, cur);
      if (knot > t && knot - t < dt) {
        dt = knot - t;
        step_cause = StepCause::kTraceKnot;
      }
    }
    auto deadline = [&](double when) {
      if (when > t && when - t < dt) {
        dt = when - t;
        step_cause = StepCause::kDeadline;
      }
    };
    if (sh.scenario.job_cycles > 0.0) deadline(next_submit);
    if (mgr == MgrState::kTracking) {
      deadline(next_reassess);
      if (timer_watched) deadline(next_control);
      if (queue > 0) {  // a job starts at the very next eval
        dt = dt_min;
        step_cause = StepCause::kDeadline;
      }
    } else if (mgr == MgrState::kSprinting) {
      deadline(sprint_started + 1.5 * plan.deadline);
      if (!sprint_bypassed) {
        deadline(sprint_started + plan.phase_time);
        deadline(sprint_started + kSagEnableTime);
      }
      if (f_eff > 0.0) {
        const double remaining = plan.cycles - (cycles - sprint_start_cycles);
        deadline(t + remaining / f_eff);
      }
    }

    // Regulated rail outside its settle band.  With the clock running, fine
    // steps (~2*tau) are still needed: p_load(v_d) and the effective
    // frequency clamp f_max(v_dd) must track the moving rail.  With the
    // clock gated off, nothing rides the rail and the 3-regime map is exact
    // in closed form for any dt — so instead of grinding capped micro-steps
    // through (or, for a pinned rail, *at*) the transient, take one step to
    // the closed-form episode endpoint: the tick where the rail first enters
    // its band.  A pinned rail (regulator unsupported at the present solar
    // voltage, or stuck above target with no load to sink into) has no
    // endpoint and needs no settle cap at all — the watch bounds alone
    // guarantee crossing detection.
    if (cmd_path == PowerPath::kRegulated) {
      const double e_t = 0.5 * c_vdd * cmd_vdd * cmd_vdd + p_load * dt_min;
      const double v_eff = std::sqrt(2.0 * e_t / c_vdd);
      if (std::fabs(v_d - v_eff) > kRailBand) {
        if (p_load > 0.0) {
          if (kRailSettleCap < dt) {
            dt = kRailSettleCap;
            step_cause = StepCause::kSettle;
          }
        } else {
          double dt_settle = std::numeric_limits<double>::infinity();
          if (step_sc_ok) {
            const double e_0 = 0.5 * c_vdd * v_d * v_d;
            const double v_lo = v_eff - kRailBand;
            const double v_hi = v_eff + kRailBand;
            dt_settle = flat::rail_settle_dt(
                e_0, e_t, dt_min, kTau, 0.0, kScFlat.rated,
                0.5 * c_vdd * v_lo * v_lo, 0.5 * c_vdd * v_hi * v_hi);
            // The rail side of a long episode is exact, and integrate()
            // prices conversion losses per regime — but eta(vin) and the
            // supports check still freeze at step start, and relaxing this
            // cap measurably degrades the max-perf duty-cycling nodes in
            // the equivalence suite (systematically past ~2x, marginally at
            // 2x; see DESIGN.md 6h).  Supported episodes therefore keep the
            // classic ~2*tau cap — the closed form still lands them exactly
            // on the band-entry tick when that comes sooner.  Only the
            // *pinned* rail (unsupported, no endpoint) runs uncapped; that
            // is where the old cap burned steps grinding a frozen transient.
            dt_settle = std::min(dt_settle, kRailSettleCap);
          }
          if (dt_settle < dt) {
            dt = std::max(dt_settle, dt_min);
            step_cause = StepCause::kSettle;
          }
        }
      }
    }
    // Analytic watch bounds.  G is linear between knots and dt never crosses
    // a knot, so max irradiance over the step sits at its endpoints.
    const double g_end = trace.constant ? g0 : trace.at(t + dt, cur);
    const double g_hi = std::max(g0, g_end);

    // Max terminal current the cell can source anywhere on an *upward* path
    // from the present voltage (i_pv is decreasing in v, increasing in g).
    // Only the bypass swing cap reads it — the watch bounds below all walk
    // the surface directly (wb.iv is always set here), so regulated steps
    // skip the lookup.
    double i_pv_now = 0.0;

    // Bypass: the clock rides the shared node, so bound the rail swing per
    // step to keep the frequency error within ~1%.  The swing rate is the
    // *net* current into the merged node — near the operating equilibrium it
    // is tiny, so this is an accuracy cap, not a tick-scale clamp (the watch
    // bounds below independently guarantee crossing detection).
    if (cmd_path != PowerPath::kRegulated) {
      i_pv_now = cell_i(v_s, g_hi);
      if (can_run) {
        const double i_load = p_load / std::max(v_d, kWatchVFloor);
        const double i_net = std::fabs(i_pv_now - i_load);
        const double rate = (1.5 * i_net + 1e-6) / (c_solar + c_vdd);
        if (rate > 0.0 && kBypassDvCap / rate < dt) {
          dt = kBypassDvCap / rate;
          step_cause = StepCause::kWatchBound;
        }
      }
    }

    WatchAccum ws, wd;
    solar_watches(ws);
    rail_watches(wd);
    // Shared analytic no-late-detection bounds (see flat::watch_bound_dt for
    // the monotonicity argument and the per-direction rate derivations).
    flat::WatchBoundIn wb;
    wb.dt = dt;
    wb.half_hyst = kCompHalfHyst;
    wb.v_floor = kWatchVFloor;
    wb.v_s = v_s;
    wb.v_d = v_d;
    wb.c_solar = c_solar;
    wb.c_vdd = c_vdd;
    wb.i_pv_now = i_pv_now;
    wb.p_load = p_load;
    wb.regulated = cmd_path == PowerPath::kRegulated;
    wb.conducting = cmd_path == PowerPath::kBypass && v_s > v_d;
    wb.cmd_vdd = cmd_vdd;
    wb.e_t = 0.5 * c_vdd * cmd_vdd * cmd_vdd + p_load * dt_min;
    wb.e_0 = 0.5 * c_vdd * v_d * v_d;
    wb.tau = kTau;
    wb.dt_ref = dt_min;
    wb.sc_ok = step_sc_ok;
    wb.sc = &kScFlat;
    wb.iv = &iv;
    wb.g_hi = g_hi;
    wb.g_lo = std::min(g0, g_end);
    const double dt_watched = flat::watch_bound_dt(wb, ws, wd);
    if (dt_watched < dt) {
      dt = dt_watched;
      step_cause = StepCause::kWatchBound;
    }

    // Quantize to whole reference ticks (flooring preserves every bound
    // above) so controller evals, job adjudication, and the discrete rail
    // map all land on the same instants the fixed-step loop uses; then
    // clamp to the day end (the final partial step may be sub-tick).
    const double ticks = std::max(1.0, std::floor(dt / dt_min + 1e-6));
    dt = ticks * dt_min;
    return std::min(dt, day - t);
  }

  // ---------------------------------------------------------------------
  // Physics integration (shared hemp::flat primitives: implicit midpoint on
  // the stiff solar node, exact closed-form regulated rail).
  //
  // The step is split into a prologue (controller, dt selection, and
  // everything of the integration except the solar-node Newton solve) and
  // an epilogue (rail update, metrics, time advance) so a lane driver can
  // batch the solve across nodes via flat::integrate_solar_lane.  Steps the
  // lane cannot express — the conducting-bypass merged two-node solve —
  // integrate scalar inside the prologue and skip the lane entirely, so the
  // per-node arithmetic is identical either way.
  // ---------------------------------------------------------------------

  struct StepPlan {
    double g0 = 0.0;
    double dt = 0.0;
    double g_mid = 0.0;
    double p_load = 0.0;
    bool solar_solve = false;  ///< step needs an integrate_solar solve
    double p_in = 0.0;         ///< regulator source-side draw for the solve
    double p_out = 0.0;        ///< regulator output power for the rail update
  };

  HEMP_HOT void integrate_pre(StepPlan& pl) {
    pl.solar_solve = true;
    pl.p_in = 0.0;
    pl.p_out = 0.0;
    if (cmd_path == PowerPath::kRegulated) {
      if (!step_sc_ok) return;
      {
        // Closed-form restoration matching the reference tick map exactly
        // (see flat::rail_regulated_step for the 3-regime derivation).  The
        // steady rail rides at sqrt(vt^2 + 2*p_load*dt_ref/C), which keeps
        // the commanded frequency off the f_max clamp.
        const double e_t = 0.5 * c_vdd * cmd_vdd * cmd_vdd +
                           pl.p_load * dt_min;
        const double e_0 = 0.5 * c_vdd * v_d * v_d;
        const flat::RailEpisode ep = flat::rail_regulated_episode(
            e_0, e_t, pl.dt, dt_min, kTau, pl.p_load, kScFlat.rated,
            &pow_memo);
        // Conversion losses priced per regime: the ramp pins p_out at rated,
        // the drain pins it at zero, and the geometric phase transfers its
        // own average — so a one-step settle episode sees the same eta
        // profile the capped micro-steps used to walk through, instead of
        // one lookup at the smeared rated-to-zero average.
        double e_in = 0.0;   // source-side energy drawn over the step
        double e_out = 0.0;  // regulator output energy over the step
        if (ep.t_ramp > 0.0) {
          const double eta = sc_efficiency(v_s, cmd_vdd, kScFlat.rated);
          if (eta > 0.0) {
            e_out += kScFlat.rated * ep.t_ramp;
            e_in += kScFlat.rated * ep.t_ramp / eta;
          }
        }
        if (ep.t_decay > 0.0) {
          const double p_restore = (ep.e_end - ep.e_decay_0) / ep.t_decay;
          const double p_dec =
              std::clamp(pl.p_load + p_restore, 0.0, kScFlat.rated);
          if (p_dec > 0.0) {
            const double eta = sc_efficiency(v_s, cmd_vdd, p_dec);
            if (eta > 0.0) {
              e_out += p_dec * ep.t_decay;
              e_in += p_dec * ep.t_decay / eta;
            }
          }
        }
        pl.p_out = e_out / pl.dt;
        pl.p_in = e_in / pl.dt;
      }
      return;
    }

    // Bypass (and kOff, which the manager never commands): the switch
    // conducts solar -> rail when v_s > v_d.  The discrete reference update
    // rings at tau_RC ~ R*C_parallel ~ 8 us; the kernel integrates the
    // merged quasi-steady limit instead (charge-conserving, same energy).
    if (cmd_path == PowerPath::kBypass && v_s > v_d) {
      const flat::BypassStepResult r = flat::integrate_bypass_merged(
          iv, c_solar, c_vdd, kBypassR, v_s, v_d, pl.dt, pl.g_mid, pl.p_load,
          kWatchVFloor);
      if (r.conducted) {
        harvested += pl.dt * r.p_harvest_avg;
        pl.solar_solve = false;  // merged solve integrated both nodes
        return;
      }
      // Diode would block: treat as detached for this step (p_in stays 0).
    }
  }

  // ---------------------------------------------------------------------
  // Main loop
  // ---------------------------------------------------------------------

  bool done() const { return t >= day - 1e-15; }

  /// Controller + dt selection + integration pre-pass for one step.
  HEMP_HOT void step_prologue(StepPlan& pl) {
    {
      const double g0 = trace.at(t, cur);
      pl.g0 = g0;
      controller_eval();

      // Load for this step (reference tick semantics: rail voltage gates the
      // clock; commanded frequency clamps at f_max(v_dd)).
      if (v_d < kVminProc) {
        vmin_latch = true;
      } else if (v_d >= kVminProc + (cmd_path == PowerPath::kBypass
                                         ? kVminHysteresis
                                         : 0.0)) {
        vmin_latch = false;
      }
      can_run = cmd_run && !vmin_latch && v_d <= kVmaxProc;
      double p_load = 0.0;
      f_eff = 0.0;
      if (can_run) {
        const double v_fm = std::clamp(v_d, kVminProc, kVmaxProc);
        if (v_fm != fmax_key) {
          fmax_key = v_fm;
          fmax_val = proc_fmax(pc, v_fm);
        }
        const double fmax_now = fmax_val;
        f_eff = cmd_freq;
        bool clamped = false;
        if (f_eff > fmax_now) {
          clamped = true;
          f_eff = fmax_now;
        }
        // The reference counts clamped *ticks*; the kernel counts clamp
        // episodes (transitions into the clamped condition).
        if (clamped && !fault_latch) ++timing_faults;
        fault_latch = clamped;
        if (v_d != pload_key_v || f_eff != pload_key_f) {
          pload_key_v = v_d;
          pload_key_f = f_eff;
          pload_val = proc_power(pc, v_d, f_eff);
        }
        p_load = pload_val;
      } else {
        fault_latch = false;
        if (was_running && cmd_run) ++brownouts;
      }
      was_running = can_run;
      pl.p_load = p_load;
      pl.dt = choose_dt(g0, p_load);
    }
    ++step_counts[static_cast<int>(step_cause)];
    pl.g_mid = trace.at(t + 0.5 * pl.dt, cur);
    integrate_pre(pl);
  }

  /// Rail update + per-step metrics + time advance.  `p_avg` is the solar
  /// Newton solve's average harvested power (ignored when the prologue
  /// already integrated the step via the merged bypass solve).
  HEMP_HOT void step_epilogue(const StepPlan& pl, double p_avg) {
    if (pl.solar_solve) {
      harvested += pl.dt * p_avg;
      double e_d = 0.5 * c_vdd * v_d * v_d + (pl.p_out - pl.p_load) * pl.dt;
      if (e_d < 0.0) e_d = 0.0;
      v_d = std::sqrt(2.0 * e_d / c_vdd);
    }

    // Metrics over the step.
    if (can_run) {
      cycles += f_eff * pl.dt;
      delivered += pl.p_load * pl.dt;
    } else if (cmd_run) {
      halted += pl.dt;
    }
    // MPPT tracking error, dt-weighted (the reference averages uniform
    // waveform samples under the same predicate).
    if (cmd_path == PowerPath::kRegulated && f_eff > 0.0 && pl.g0 >= 0.05) {
      const double g_q = std::round(pl.g0 * 100.0) / 100.0;
      if (g_q >= 0.05) {
        const double vmpp = sh.vmpp_at(s.pv_scale, g_q);
        if (vmpp > 0.0) {
          mppt_num += pl.dt * std::fabs(v_s - vmpp) / vmpp;
          mppt_den += pl.dt;
        }
      }
    }
    p_processor = pl.p_load;
    t += pl.dt;
  }

  /// Day-end flush: comparator-bank edges, step accounting, result build.
  NodeResult finish() {
    if (events != nullptr) update_bank();  // final edge flush at day end
    for (int c = 0; c < solver_stats::kStepCauseCount; ++c) {
      solver_stats::count_steps(static_cast<solver_stats::StepCause>(c),
                                step_counts[static_cast<std::size_t>(c)]);
    }

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

  /// Scalar driver: the reference arrangement of the split step, used by
  /// run_node() / traced runs and as the bit-identity baseline for the lane
  /// driver below.
  HEMP_HOT NodeResult run() {
    // One-time setup before the stepped loop (builds LUT/ladder buffers).
    // hemp-analyzer: allow(hot-path-purity) — setup edge, not per-step
    on_start();
    StepPlan pl;
    while (!done()) {
      step_prologue(pl);
      double p_avg = 0.0;
      if (pl.solar_solve) {
        p_avg =
            flat::integrate_solar(iv, c_solar, v_s, pl.dt, pl.g_mid, pl.p_in);
      }
      step_epilogue(pl, p_avg);
    }
    return finish();
  }
};

/// Lane driver: advances up to flat::kSolarLaneWidth node runners
/// concurrently so their solar-node Newton solves share one vectorizable
/// flat::integrate_solar_lane call per round.  Nodes advance at independent
/// times — there is nothing to synchronize; grouping is by concurrent
/// stepping, not trace identity — and a slot whose day completes is refilled
/// with the next pending node, so short-lived lanes never idle the loop.
/// Steps the lane cannot express (the conducting-bypass merged solve)
/// integrate scalar inside the prologue and simply skip the gather.  Lane
/// elements converge and freeze independently inside integrate_solar_lane,
/// so every node executes exactly the scalar step sequence and the results
/// written to `out` are bit-identical to run_node() per node.
void run_nodes_laned(const BatchFleetKernel::Shared& sh, int lo, int hi,
                     NodeResult* out) {
  constexpr int kW = flat::kSolarLaneWidth;
  std::array<std::optional<NodeRunner>, kW> slot;
  std::array<int, kW> node_of{};
  std::array<NodeRunner::StepPlan, kW> plan{};
  int next = lo;
  int active = 0;

  const auto fill = [&](int w) {
    const std::size_t i = static_cast<std::size_t>(next);
    slot[static_cast<std::size_t>(w)].emplace(
        NodeRunner{sh,
                   sh.samples[i],
                   sh.pv[i],
                   sh.proc[i],
                   sh.shared_sky ? sh.sky : sh.traces[i],
                   sh.samples[i].solar_capacitance.value(),
                   sh.scenario.vdd_cap.value(),
                   sh.scenario.day_length.value(),
                   sh.scenario.time_step.value(),
                   sh.crossover_power[i]});
    node_of[static_cast<std::size_t>(w)] = next++;
    slot[static_cast<std::size_t>(w)]->on_start();
    ++active;
  };
  for (int w = 0; w < kW && next < hi; ++w) fill(w);

  // Gather buffers for the lane call (element order = ascending slot).
  std::array<flat::IvSurface::Bound, kW> iv_g{};
  std::array<double, kW> c_g{}, v_g{}, dt_g{}, gm_g{}, pin_g{}, pavg_g{};

  while (active > 0) {
    int n_lane = 0;
    for (int w = 0; w < kW; ++w) {
      auto& r = slot[static_cast<std::size_t>(w)];
      if (!r) continue;
      auto& pl = plan[static_cast<std::size_t>(w)];
      r->step_prologue(pl);
      if (pl.solar_solve) {
        const auto e = static_cast<std::size_t>(n_lane);
        iv_g[e] = r->iv;
        c_g[e] = r->c_solar;
        v_g[e] = r->v_s;
        dt_g[e] = pl.dt;
        gm_g[e] = pl.g_mid;
        pin_g[e] = pl.p_in;
        ++n_lane;
      }
    }
    if (n_lane > 0) {
      flat::integrate_solar_lane(iv_g.data(), c_g.data(), v_g.data(),
                                 dt_g.data(), gm_g.data(), pin_g.data(),
                                 pavg_g.data(), n_lane);
    }
    int e = 0;
    for (int w = 0; w < kW; ++w) {
      auto& r = slot[static_cast<std::size_t>(w)];
      if (!r) continue;
      const auto& pl = plan[static_cast<std::size_t>(w)];
      double p_avg = 0.0;
      if (pl.solar_solve) {
        const auto ei = static_cast<std::size_t>(e);
        r->v_s = v_g[ei];
        p_avg = pavg_g[ei];
        ++e;
      }
      r->step_epilogue(pl, p_avg);
      if (r->done()) {
        out[node_of[static_cast<std::size_t>(w)]] = r->finish();
        r.reset();
        --active;
        if (next < hi) fill(w);
      }
    }
  }
}

}  // namespace

NodeResult BatchFleetKernel::run_node(int index) const {
  const Shared& sh = *shared_;
  HEMP_REQUIRE(index >= 0 && index < sh.scenario.nodes,
               "BatchFleetKernel: node index out of range");
  const std::size_t i = static_cast<std::size_t>(index);
  NodeRunner lane{sh,
                  sh.samples[i],
                  sh.pv[i],
                  sh.proc[i],
                  sh.shared_sky ? sh.sky : sh.traces[i],
                  sh.samples[i].solar_capacitance.value(),
                  sh.scenario.vdd_cap.value(),
                  sh.scenario.day_length.value(),
                  sh.scenario.time_step.value(),
                  sh.crossover_power[i]};
  return lane.run();
}

NodeResult BatchFleetKernel::run_node_traced(
    int index, std::vector<BatchComparatorEvent>& events) const {
  const Shared& sh = *shared_;
  HEMP_REQUIRE(index >= 0 && index < sh.scenario.nodes,
               "BatchFleetKernel: node index out of range");
  const std::size_t i = static_cast<std::size_t>(index);
  NodeRunner lane{sh,
                  sh.samples[i],
                  sh.pv[i],
                  sh.proc[i],
                  sh.shared_sky ? sh.sky : sh.traces[i],
                  sh.samples[i].solar_capacitance.value(),
                  sh.scenario.vdd_cap.value(),
                  sh.scenario.day_length.value(),
                  sh.scenario.time_step.value(),
                  sh.crossover_power[i],
                  &events};
  return lane.run();
}

FleetReport BatchFleetKernel::run(const BatchKernelOptions& opts) const {
  const Shared& sh = *shared_;
  const auto before = solver_stats::snapshot();
  const int n = sh.scenario.nodes;
  std::vector<NodeResult> results(static_cast<std::size_t>(n));
  const int block = std::max(1, opts.block_size);
  if (!opts.parallel || n <= block) {
    if (opts.simd_lanes) {
      run_nodes_laned(sh, 0, n, results.data());
    } else {
      for (int i = 0; i < n; ++i) {
        results[static_cast<std::size_t>(i)] = run_node(i);
      }
    }
  } else {
    const std::size_t blocks =
        (static_cast<std::size_t>(n) + static_cast<std::size_t>(block) - 1) /
        static_cast<std::size_t>(block);
    ThreadPool& pool = opts.pool != nullptr ? *opts.pool : ThreadPool::shared();
    parallel_for(pool, blocks, [&](std::size_t b) {
      const int lo = static_cast<int>(b) * block;
      const int hi = std::min(lo + block, n);
      if (opts.simd_lanes) {
        run_nodes_laned(sh, lo, hi, results.data());
      } else {
        for (int i = lo; i < hi; ++i) {
          results[static_cast<std::size_t>(i)] = run_node(i);
        }
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
