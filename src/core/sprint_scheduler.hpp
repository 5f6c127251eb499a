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
//   * at runtime, bypasses the regulator once it can no longer sustain the
//     rail, letting the cell charge the rail directly and extending operation
//     (the paper measures +3 ms / ~20% extension, ~10% extra solar energy).
#pragma once

#include <optional>

#include "core/system_model.hpp"
#include "sim/soc_system.hpp"

namespace hemp {

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

struct SprintControllerParams {
  /// Engage the bypass when the regulator loses input headroom or the rail
  /// sags this far below its target.
  Volts sag_margin{0.05};
  /// Consider the run dead when (in bypass) the rail cannot reach the
  /// processor's minimum voltage anymore.
  Volts give_up_margin{0.01};
};

/// Executes a SprintPlan against the transient SoC: slow phase, fast phase,
/// then regulator bypass at the tail (paper Figs. 9b / 11b).
class SprintController : public SocController {
 public:
  SprintController(const SystemModel& model, SprintPlan plan,
                   SprintControllerParams params = {},
                   bool enable_bypass = true);

  void on_start(const SocState& state, SocCommand& cmd) override;
  void on_tick(const SocState& state, SocCommand& cmd) override;
  bool finished(const SocState& state) override;

  [[nodiscard]] bool bypass_engaged() const { return bypassed_; }
  [[nodiscard]] std::optional<Seconds> bypass_time() const { return bypass_at_; }
  [[nodiscard]] bool job_done() const { return done_; }
  [[nodiscard]] std::optional<Seconds> completion_time() const { return done_at_; }

 private:
  const SystemModel* model_;
  SprintPlan plan_;
  SprintControllerParams params_;
  bool enable_bypass_;
  bool bypassed_ = false;
  bool done_ = false;
  std::optional<Seconds> bypass_at_;
  std::optional<Seconds> done_at_;
};

}  // namespace hemp
