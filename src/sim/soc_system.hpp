// Transient simulator of the fully integrated battery-less SoC.
//
// Topology (paper Fig. 1 / Sec. VII):
//
//   PV cell --> solar node (storage cap, comparator bank)
//                  |--- on-chip regulator ---> Vdd node (rail cap) --> uP
//                  '--- bypass switch     ---'
//
// Fixed-timestep integration of both capacitor nodes.  A SocController (a
// policy controller, or a simple fixed-point one) observes the state each
// tick and commands the power path, the regulator's Vdd target, and DVFS.
// Comparator edges are not dispatched: a controller that watches the solar
// node (the MPP tracker's Fig. 8 window) runs its own ThresholdTimer.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/audit.hpp"
#include "common/units.hpp"
#include "harvester/light_environment.hpp"
#include "harvester/pv_cell.hpp"
#include "processor/processor.hpp"
#include "regulator/bypass.hpp"
#include "regulator/regulator.hpp"
#include "sim/waveform.hpp"
#include "storage/capacitor.hpp"

namespace hemp {

enum class PowerPath {
  kRegulated,  ///< solar -> regulator -> Vdd rail
  kBypass,     ///< solar node shorted to the Vdd rail through the switch
  kOff,        ///< both paths open (rail discharges into the load)
};

struct SocConfig {
  PvCellParams pv{};
  Farads solar_capacitance{47e-6};
  Farads vdd_capacitance{10e-6};
  Volts solar_start_voltage{1.2};
  Volts vdd_start_voltage{0.5};
  /// Descending comparator thresholds on the solar node (Fig. 8's V0, V1,
  /// V2).  The fast path bounds its steps by them; no controller reads them.
  std::vector<Volts> comparator_thresholds{Volts(1.1), Volts(1.0), Volts(0.9)};
  BypassParams bypass{};
  Seconds time_step{2e-6};
  /// Time constant of the regulator's output-voltage restoration loop.
  Seconds regulation_time_constant{50e-6};
  /// Decimation interval for the waveform record.
  Seconds waveform_interval{50e-6};
  /// Run the physics-invariant auditor every tick (energy conservation,
  /// eta in [0, 1], monotonic time, finite node voltages).  Defaults to the
  /// HEMP_AUDIT compile option; tests may force it on in any build.
  bool audit = audit_compiled_in();
  /// Opt into the surface-only event-driven engine (zero exact solves in the
  /// stepped loop).  Falls back to the dense reference loop when the audit is
  /// on or when the regulator is not the on-chip switched-cap converter.  A
  /// controller that declines to bound its next state change keeps the run on
  /// the event engine, one reference tick per step (see SocStepHint).
  bool fast_path = false;
  /// Knot-coarsening budget for the fast path's flattened trace: the
  /// absorbed-irradiance error allowed per simulated second (sun fraction;
  /// the per-run budget handed to flat::FlatTrace::coarsen is this times the
  /// run length).  Zero keeps every flattened knot.  Only the fast path reads
  /// it — the dense reference loop samples the exact profile.
  double trace_coarsen_eps = 1e-3;  // unit-lint: dimensionless sun fraction

  void validate() const;
};

/// Controller-visible state snapshot.
struct SocState {
  Seconds time{0.0};
  double irradiance = 0.0;
  Volts v_solar{0.0};
  Volts v_dd{0.0};
  Watts p_harvest{0.0};   ///< instantaneous power extracted from the cell
  Watts p_processor{0.0}; ///< instantaneous processor draw
  PowerPath path = PowerPath::kRegulated;
  Hertz frequency{0.0};   ///< effective clock this tick
  bool processor_running = false;
  bool regulator_ok = true;  ///< regulator had input headroom this tick
  double cycles_retired = 0.0;
};

/// Controller-writable command latch (persists between ticks).
struct SocCommand {
  PowerPath path = PowerPath::kRegulated;
  Volts vdd_target{0.5};
  Hertz frequency{100e6};
  bool run = true;  ///< clock enable
};

/// Controller advice for the event engines.  After each control evaluation
/// the engine asks the controller how far it may step: the step is bounded by
/// the earliest future deadline and by analytic no-late-detection bounds on
/// every watched node level, so no controller-visible event (timer expiry,
/// comparator edge, tracker window crossing) is observed late.
///
/// A deadline at or before `now` sets `due` instead of bounding the step; a
/// due deadline costs the fast path one reference tick and the batch kernel
/// nothing.  `decide_now` asks both for an evaluation at the next tick.
struct SocStepHint {
  /// The instant the hint is asked at (engine-set).
  double now = 0.0;
  /// Controller supports long steps from this state.  Left false (default),
  /// the engine takes one reference tick for this step and asks again after
  /// it; the run stays on the event engine.
  bool event_driven = false;
  /// A deadline at or before `now` was emitted.
  bool due = false;
  /// The controller decides at the next reference tick.
  bool decide_now = false;
  /// Earliest deadline after `now`.
  double next_deadline_s = std::numeric_limits<double>::infinity();
  // Left uninitialized (only *_count entries are read): asked every step.
  std::array<double, 8> solar_watch;
  std::size_t solar_watch_count = 0;
  std::array<double, 4> rail_watch;
  std::size_t rail_watch_count = 0;

  void deadline(double t_s) {
    if (t_s <= now) due = true;
    else if (t_s < next_deadline_s) next_deadline_s = t_s;
  }
  void watch_solar(double v) {
    if (solar_watch_count < solar_watch.size()) solar_watch[solar_watch_count++] = v;
    else event_driven = false;  // overflow: refuse long steps rather than miss
  }
  void watch_rail(double v) {
    if (rail_watch_count < rail_watch.size()) rail_watch[rail_watch_count++] = v;
    else event_driven = false;
  }
};

class SocController {
 public:
  virtual ~SocController() = default;
  virtual void on_start(const SocState& state, SocCommand& cmd) {
    (void)state;
    (void)cmd;
  }
  virtual void on_tick(const SocState& state, SocCommand& cmd) {
    (void)state;
    (void)cmd;
  }
  /// Return true to stop the simulation early.
  virtual bool finished(const SocState& state) {
    (void)state;
    return false;
  }
  /// Fast-path stepping advice, queried after on_tick.  A
  /// controller that can bound its next decision point sets event_driven and
  /// registers deadlines / watch levels; the default refuses long steps.
  virtual void step_hint(const SocState& state, SocStepHint& hint) const {
    (void)state;
    (void)hint;
  }
};

struct SimTotals {
  Joules harvested{0.0};          ///< energy actually extracted from the cell
  Joules delivered_to_processor{0.0};
  Joules regulator_loss{0.0};
  Joules bypass_loss{0.0};
  double cycles = 0.0;
  int brownouts = 0;       ///< running->halted transitions from undervoltage
  int timing_faults = 0;   ///< ticks where commanded f exceeded fmax(Vdd)
  Seconds halted_time{0.0};
  Seconds simulated_time{0.0};
  /// Invariant checks executed by the auditor (0 unless SocConfig::audit).
  std::uint64_t audit_checks = 0;
};

struct SimResult {
  Waveform waveform;
  SimTotals totals;
  SocState final_state;
};

/// The waveform both engines record (v_solar, v_dd, irradiance, frequency_hz,
/// p_harvest_w, p_processor_w, path, cycles), sized for `t_end` / `interval`
/// rows; record_soc_sample appends the post-step `state` and commanded `path`.
Waveform make_soc_waveform(Seconds t_end, Seconds interval);
void record_soc_sample(Waveform& waveform, double t, const SocState& state,
                       PowerPath path);

/// Opaque cache of the fast engine's precomputed surfaces (fast_soc.cpp);
/// built lazily on the first fast run and reused while it still covers the
/// requested irradiance range.  Its IV surface is solved block by block on
/// first touch, so it belongs to this SocSystem alone.
struct FastSocContext;

class SocSystem {
 public:
  SocSystem(SocConfig config, RegulatorPtr regulator, Processor processor);

  /// Simulate under `trace` until `t_end` or until the controller reports
  /// finished.  The system is reset to the configured start voltages.
  /// Dispatches to the surface-only event-driven engine when
  /// SocConfig::fast_path is set and the run is eligible (see the flag), and
  /// to the dense fixed-timestep reference loop otherwise.
  SimResult run(const IrradianceTrace& trace, SocController& controller,
                Seconds t_end);

  [[nodiscard]] const SocConfig& config() const { return config_; }
  [[nodiscard]] const Regulator& regulator() const { return *regulator_; }
  [[nodiscard]] const Processor& processor() const { return processor_; }
  [[nodiscard]] const PvCell& cell() const { return cell_; }

 private:
  /// Dense fixed-timestep loop: one exact model evaluation per tick.  This is
  /// the audit-capable reference the fast path is validated against.
  SimResult run_reference(const IrradianceTrace& trace, SocController& controller,
                          Seconds t_end);
  /// Surface-only event-driven engine (fast_soc.cpp): precomputed IV / MPP
  /// surfaces plus closed-form rail stepping, zero exact solves in the loop.
  SimResult run_fast(const IrradianceTrace& trace, SocController& controller,
                     Seconds t_end);
  /// Fast path requires the on-chip switched-cap regulator model (its ratio
  /// ladder and rated load are baked into the precomputed surfaces).
  [[nodiscard]] bool fast_eligible() const;

  SocConfig config_;
  RegulatorPtr regulator_;
  Processor processor_;
  PvCell cell_;
  std::shared_ptr<FastSocContext> fast_ctx_;
};

/// Holds the commanded operating point constant (the paper's conventional
/// fixed-setpoint baseline).
class FixedPointController : public SocController {
 public:
  FixedPointController(PowerPath path, Volts vdd_target, Hertz frequency);
  void on_start(const SocState& state, SocCommand& cmd) override;
  void step_hint(const SocState& state, SocStepHint& hint) const override;

 private:
  SocCommand fixed_;
};

}  // namespace hemp
