// Holistic runtime energy manager (the paper's "intelligent scheduling and
// management", contribution 2).
//
// A SocController state machine that composes every mechanism in the paper:
//   * steady state: MPP-tracking DVFS (Sec. VI-A) in max-performance mode, or
//     holding the holistic minimum-energy point (Sec. V) in min-energy mode;
//   * low light: bypasses the regulator below the Fig. 7a crossover and runs
//     the core straight off the cell;
//   * deadlines: plans and executes a sprint (Sec. VI-B) for each submitted
//     job, with regulator bypass at the tail, then recovers the storage cap
//     at a large duty cycle before resuming steady-state operation.
//
// Every physics read goes through a ControlPlant (core/control_plant.hpp),
// so all three engines run this one manager.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/control_plant.hpp"
#include "core/mep_optimizer.hpp"
#include "core/mpp_tracker.hpp"
#include "core/sprint_scheduler.hpp"
#include "core/system_model.hpp"
#include "sim/soc_system.hpp"

namespace hemp {

enum class ManagerMode {
  kMaxPerformance,  ///< track MPP, run as fast as the harvest allows
  kMinEnergy,       ///< hold the holistic MEP (background/maintenance work)
};

/// Order in which queued deadline jobs are started.
enum class QueueDiscipline {
  kFifo,  ///< submission order (the original behavior)
  kEdf,   ///< earliest absolute deadline first, stale jobs dropped as missed
};

/// Sprint rail-sag rule: a regulated sprint falls back to the bypass once
/// the rail sags this far (V) under its operating point, a check that arms
/// only after the sprint has run this long (s).
inline constexpr double kSprintSagMargin = 0.05;
inline constexpr double kSprintSagArmTime = 1e-4;

/// The Fig. 7a low-light bypass hysteresis: the bypass state after a light
/// estimate `p_est`.  The node enters the bypass below `enter_ratio` of the
/// crossover power and leaves it above `exit_ratio`; a zero crossover power
/// turns the rule off.
[[nodiscard]] inline bool low_light_bypass_next(bool bypass, Watts p_est, Watts crossover,
                                                double enter_ratio, double exit_ratio) {
  if (crossover.value() <= 0.0) return bypass;
  if (!bypass && p_est < enter_ratio * crossover) return true;
  if (bypass && p_est > exit_ratio * crossover) return false;
  return bypass;
}

struct EnergyManagerParams {
  ManagerMode mode = ManagerMode::kMaxPerformance;
  MppTrackerParams tracker{};
  /// Sprint factor used for deadline jobs (paper demonstrates 20%).
  double sprint_factor = 0.2;
  /// After a sprint, idle until the solar node recovers above this voltage.
  Volts recover_voltage{1.05};
  /// false disables the Fig. 7a low-light bypass entirely: the node stays on
  /// the regulator no matter how dim the sky gets (policy-zoo ablation).
  bool low_light_bypass_enabled = true;
  /// Hysteresis around the low-light bypass decision (fractions of the
  /// crossover power).
  double bypass_enter_ratio = 0.9;
  double bypass_exit_ratio = 1.2;
  /// How often the steady-state light estimate is refreshed.
  Seconds reassess_period{2e-3};
  QueueDiscipline queue_discipline = QueueDiscipline::kFifo;

  void validate() const;
};

struct JobRequest {
  double cycles = 0.0;
  Seconds relative_deadline{0.0};
};

class EnergyManager : public SocController {
 public:
  /// Manages on its own ModelPlant over `model`.
  EnergyManager(const SystemModel& model, const EnergyManagerParams& params);
  /// Manages on `plant`, which must outlive the manager.
  EnergyManager(ControlPlant& plant, const EnergyManagerParams& params);

  /// Queue a deadline job; it starts at the next tick after the current
  /// activity finishes (or immediately when tracking).  The deadline clock
  /// starts at the last observed tick time (use submit_at from controller
  /// callbacks, which know the exact current time).
  void submit(const JobRequest& job);

  /// Queue a deadline job whose deadline is absolute at `now + relative`.
  /// Only the kEdf discipline reads the absolute deadline; under kFifo this
  /// is byte-for-byte the original submit behavior.
  void submit_at(const JobRequest& job, Seconds now);

  void on_start(const SocState& state, SocCommand& cmd) override;
  void on_tick(const SocState& state, SocCommand& cmd) override;
  /// Both event engines' step rule (inline below, for the batch kernel).
  void step_hint(const SocState& state, SocStepHint& hint) const override;

  [[nodiscard]] int jobs_completed() const { return run_.jobs_completed; }
  [[nodiscard]] int jobs_missed() const { return run_.jobs_missed; }
  [[nodiscard]] bool in_bypass() const { return run_.low_light_bypass; }
  [[nodiscard]] bool sprinting() const { return run_.sprint.has_value(); }

  // --- Read-only run state, for tests that script the manager by hand.
  enum class State { kTracking, kSprinting, kRecovering };
  struct ActiveSprint {
    SprintPlan plan;
    Seconds started{0.0};
    double start_cycles = 0.0;
    bool bypassed = false;
  };
  [[nodiscard]] State current_state() const { return run_.state; }
  [[nodiscard]] const std::optional<ActiveSprint>& sprint() const { return run_.sprint; }

 private:
  EnergyManager(std::unique_ptr<ControlPlant> owned, const EnergyManagerParams& params);

  void enter_tracking(SocCommand& cmd);
  void start_next_job(const SocState& state, SocCommand& cmd);
  void tick_tracking(const SocState& state, SocCommand& cmd);
  void tick_sprinting(const SocState& state, SocCommand& cmd);
  void tick_recovering(const SocState& state, SocCommand& cmd);
  void refresh_light_estimate(const SocState& state, const SocCommand& cmd);
  void apply_mep_point(SocCommand& cmd, double g_estimate);
  [[nodiscard]] const SprintPlan& plan_for(double cycles, Seconds budget);

  /// One queued job: the request plus the absolute deadline stamped at
  /// submission (read only by the kEdf discipline).
  struct PendingJob {
    JobRequest job{};
    Seconds absolute_deadline{0.0};
  };

  [[nodiscard]] bool queue_empty() const { return run_.q_count == 0; }
  [[nodiscard]] PendingJob pop_job();
  void grow_queue();

  /// Everything one run changes, at its constructed value.  on_start restores
  /// it for every run after the first (jobs submitted before the first run
  /// are that run's), so a manager run twice behaves as a fresh one.
  struct RunState {
    State state = State::kTracking;
    /// Pending jobs as a ring buffer: submit() runs from controller hot paths
    /// (hemp-analyzer hot-path-purity), so the steady state is an indexed
    /// write into pre-sized storage rather than a per-job allocation.
    std::vector<PendingJob> queue = std::vector<PendingJob>(16);
    std::size_t q_head = 0;
    std::size_t q_count = 0;
    /// Last tick time — the deadline clock for submit() without an explicit
    /// now.
    Seconds now{0.0};
    std::optional<ActiveSprint> sprint;
    int jobs_completed = 0;
    int jobs_missed = 0;
    bool low_light_bypass = false;
    std::optional<Watts> p_in_estimate;
    Seconds next_reassess{0.0};
    Volts prev_v_solar{0.0};
    /// Whether the last on_tick ran the MPP tracker.  Not implied by the
    /// post-tick state: a job whose plan is infeasible leaves the manager
    /// tracking without ticking the tracker.
    bool tracker_ticked = false;
  };

  std::unique_ptr<ControlPlant> owned_plant_;  ///< set by the model constructor
  ControlPlant* plant_;
  EnergyManagerParams params_;
  MppTrackingController tracker_;

  Watts crossover_power_{0.0};
  /// The full-sun MPP power, read once at construction — kMinEnergy mode
  /// normalizes the light estimate against it every tick.
  Watts full_sun_mpp_power_{0.0};
  // Memos of pure plant answers (control_plant.hpp), kept across runs: a
  // rerun asks the same questions and must get the same bits.
  /// Holistic MEP solutions per 0.05-sun bucket — the MEP solve is a grid
  /// optimization and must not run every tick.  Buckets 1..20 cover the
  /// estimate's [0.05, 1] clamp; bucket 10 is the 0.5-sun seed.
  std::array<std::optional<MepPoint>, 21> mep_cache_{};
  /// The last sprint plan, keyed on the exact bits of its cycles and time
  /// budget (the sprint factor is fixed): every FIFO job of a node asks the
  /// same question, so the node plans once; EDF budgets are the remaining
  /// slack and still miss.
  struct PlanMemo {
    std::uint64_t cycles_bits = 0;
    std::uint64_t budget_bits = 0;
    SprintPlan plan{};
  };
  std::optional<PlanMemo> plan_memo_;

  RunState run_;
  bool started_ = false;
};

// The events that end the manager's present activity (Sec. VI-A's control
// tick and timer window, Sec. VI-B's sprint phases).  A passed deadline is
// still emitted (a sprint's phase switch and sag-arm time, for its whole
// run): the hint marks it due, and each engine applies that its own way.
inline void EnergyManager::step_hint(const SocState& state, SocStepHint& hint) const {
  hint.event_driven = true;
  switch (run_.state) {
    case State::kTracking:
      hint.deadline(run_.next_reassess.value());
      if (run_.tracker_ticked) {
        // Its control cadence and its window comparators' next toggles.
        const ThresholdTimer& timer = tracker_.timer();
        hint.deadline(tracker_.next_control().value());
        hint.watch_solar(timer.high_next_toggle().value());
        hint.watch_solar(timer.low_next_toggle().value());
      }
      // Bypass mode rides the shared node; the engine's own physics bounds
      // (dt cap, comparator levels) limit how stale max_frequency(v_dd) gets.
      if (!queue_empty()) hint.decide_now = true;  // the job starts next evaluation
      break;
    case State::kSprinting: {
      const ActiveSprint& s = *run_.sprint;
      hint.deadline((s.started + s.plan.deadline * 1.5).value());
      if (!s.bypassed) {
        hint.deadline((s.started + s.plan.phase_time).value());
        hint.deadline(s.started.value() + kSprintSagArmTime);  // sag check arms then
        const Seconds elapsed = state.time - s.started;
        if (elapsed.value() > kSprintSagArmTime) {
          const OperatingPoint& op =
              elapsed < s.plan.phase_time ? s.plan.slow : s.plan.fast;
          hint.watch_rail(op.vdd.value() - kSprintSagMargin);  // rail-sag bypass trigger
        }
      }
      if (state.frequency.value() > 0.0) {  // the job's last cycle at this clock
        const double remaining =
            s.plan.cycles - (state.cycles_retired - s.start_cycles);
        hint.deadline(state.time.value() + remaining / state.frequency.value());
      }
      break;
    }
    case State::kRecovering:
      hint.watch_solar(params_.recover_voltage.value());
      break;
  }
}

}  // namespace hemp
