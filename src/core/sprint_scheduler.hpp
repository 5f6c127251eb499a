// Deadline-constrained "sprinting" operation (paper Sec. VI-B, Eqs. 8-13,
// Figs. 9 and 11b).
//
// When a job must finish by a deadline the core may need more power than the
// harvester supplies; the storage capacitor bridges the gap.  The scheduler:
//
//   * computes the source energy a job needs as a function of completion time
//     (Eq. 10: faster completion -> higher Vdd -> quadratically more energy);
//   * computes the energy available from solar + capacitor over that time
//     (Eq. 11); their intersection is the fastest feasible completion (Fig. 9a);
//   * plans a two-phase "sprint" profile — run slower than nominal for the
//     first half, faster for the second (sprint factor s) — which keeps the
//     solar node at a higher, more productive voltage early and harvests more
//     total energy (Eqs. 12-13);
//   * at runtime (SprintRun), bypasses the regulator once it can no longer sustain the
//     rail, letting the cell charge the rail directly and extending operation
//     (the paper measures +3 ms / ~20% extension, ~10% extra solar energy).
#pragma once

#include <memory>
#include <optional>

#include "core/system_model.hpp"
#include "sim/soc_system.hpp"

namespace hemp {

class ControlPlant;

struct SprintPlan {
  OperatingPoint nominal;  ///< constant-speed point meeting the deadline
  OperatingPoint slow;     ///< phase 1: (1 - s) of nominal speed
  OperatingPoint fast;     ///< phase 2: (1 + s) of nominal speed
  Seconds phase_time{0.0}; ///< duration of each phase (deadline / 2)
  double sprint_factor = 0.0;
  double cycles = 0.0;
  Seconds deadline{0.0};
  bool feasible = false;
};

class SprintScheduler {
 public:
  explicit SprintScheduler(const SystemModel& model);

  /// Eq. 10: source-side energy to retire `cycles` in exactly `t` at constant
  /// speed (Vdd chosen so f_max(Vdd) = cycles / t), through the regulator.
  [[nodiscard]] Joules required_source_energy(double cycles, Seconds t,
                                              double g) const;

  /// Eq. 11: energy the source offers within `t`: harvested at MPP plus the
  /// usable part of the capacitor's stored energy.
  [[nodiscard]] Joules available_energy(Seconds t, double g,
                                        Joules usable_cap_energy) const;

  /// Fastest feasible completion time: intersection of the two curves above
  /// (Fig. 9a).  nullopt when the job is infeasible within `t_max`.
  [[nodiscard]] std::optional<Seconds> min_completion_time(
      double cycles, double g, Joules usable_cap_energy,
      Seconds t_max = Seconds(1.0)) const;

  /// Build a two-phase sprint plan for `cycles` by `deadline` with sprint
  /// factor `s` in [0, 0.5].  Infeasible (not .feasible) when even the fast
  /// phase exceeds the processor envelope.
  [[nodiscard]] SprintPlan plan(double cycles, Seconds deadline, double s) const;
  /// The same plan for `proc` alone: planning reads only the processor.
  [[nodiscard]] static SprintPlan plan(const Processor& proc, double cycles,
                                       Seconds deadline, double s);

  /// Semi-analytic evaluation of Eqs. 12-13: integrate the solar node under
  /// the constant-speed and sprint profiles and compare harvested energy.
  struct GainEstimate {
    Joules solar_constant{0.0};  ///< harvested under constant speed
    Joules solar_sprint{0.0};    ///< harvested under the sprint profile
    double extra_solar_fraction = 0.0;  ///< (sprint - constant) / constant
    Volts end_voltage_constant{0.0};
    Volts end_voltage_sprint{0.0};
  };
  [[nodiscard]] GainEstimate evaluate_gain(const SprintPlan& plan, double g,
                                           Farads c_solar, Volts v_start) const;

 private:
  const SystemModel* model_;
};

/// Sprint rail-sag rule: a regulated sprint falls back to the bypass once
/// the rail sags this far (V) under its operating point, a check that arms
/// only after the sprint has run this long (s).
inline constexpr double kSprintSagMargin = 0.05;
inline constexpr double kSprintSagArmTime = 1e-4;

/// One sprint in flight: the plan, when and at what cycle count it started,
/// and whether the regulator has been bypassed.  EnergyManager and
/// SprintController both execute a sprint through it.
struct SprintRun {
  SprintPlan plan;
  Seconds started{0.0};
  double start_cycles = 0.0;
  bool bypassed = false;

  /// Start `plan` at `state`: regulated, at the slow phase's point.
  static SprintRun begin(const SprintPlan& plan, const SocState& state,
                         SocCommand& cmd);

  /// One control evaluation.  Bypassed, the core rides the shared node at
  /// f_max; otherwise it runs the phase schedule, and (with `allow_bypass`)
  /// bypasses the regulator once it loses input headroom or the rail sags.
  void command(const SocState& state, SocCommand& cmd, const ControlPlant& plant,
               bool allow_bypass);

  /// The sprint's events: the phase switch, the sag check's arm time, the
  /// rail-sag watch and the job's last cycle at the present clock.  The two
  /// fixed deadlines are emitted for the whole regulated run, also once
  /// passed (SocStepHint marks them due).
  void hint(const SocState& state, SocStepHint& hint) const {
    if (!bypassed) {
      hint.deadline((started + plan.phase_time).value());
      hint.deadline(started.value() + kSprintSagArmTime);  // sag check arms then
      const Seconds elapsed = state.time - started;
      if (elapsed.value() > kSprintSagArmTime) {
        const OperatingPoint& op = elapsed < plan.phase_time ? plan.slow : plan.fast;
        hint.watch_rail(op.vdd.value() - kSprintSagMargin);  // rail-sag bypass trigger
      }
    }
    if (state.frequency.value() > 0.0) {  // the job's last cycle at this clock
      const double remaining = plan.cycles - (state.cycles_retired - start_cycles);
      hint.deadline(state.time.value() + remaining / state.frequency.value());
    }
  }
};

/// Executes one SprintPlan against the transient SoC (paper Figs. 9b / 11b)
/// with the energy manager's sprint code, on its own ModelPlant.  Without
/// `enable_bypass` the sprint stays on the regulator (the benches' A/B).
class SprintController : public SocController {
 public:
  SprintController(const SystemModel& model, SprintPlan plan,
                   bool enable_bypass = true);
  ~SprintController() override;

  void on_start(const SocState& state, SocCommand& cmd) override;
  void on_tick(const SocState& state, SocCommand& cmd) override;
  bool finished(const SocState& state) override;

  [[nodiscard]] bool bypass_engaged() const { return run_.bypassed; }
  [[nodiscard]] std::optional<Seconds> bypass_time() const { return bypass_at_; }
  [[nodiscard]] bool job_done() const { return done_; }
  [[nodiscard]] std::optional<Seconds> completion_time() const { return done_at_; }

 private:
  std::unique_ptr<const ControlPlant> plant_;
  SprintRun run_;
  bool enable_bypass_;
  bool done_ = false;
  std::optional<Seconds> bypass_at_;
  std::optional<Seconds> done_at_;
};

}  // namespace hemp
