// Concrete controllers behind the built-in policy zoo (policy/builtin.cpp).
//
// Three shapes:
//   * ManagedPolicyController — the full EnergyManager state machine behind
//     the PolicyController interface (ported legacy modes, hysteresis
//     variants, EDF sprinting);
//   * GreedyMppController — MPP-tracking DVFS with no management at all
//     (no MEP hold, no bypass, no sprints): the "chase the sun" ablation;
//   * DutyCycleController — a fixed on/off duty cycle at the conventional
//     MEP operating point: the classic duty-cycled-sensor baseline the
//     related work manages against.
// GreedyMppController and DutyCycleController execute jobs implicitly (the
// core runs whenever the policy says run); JobTracker charges retired cycles
// against the periodic workload to adjudicate deadlines.
#pragma once

#include "core/energy_manager.hpp"
#include "core/mep_optimizer.hpp"
#include "core/mpp_tracker.hpp"
#include "policy/energy_policy.hpp"

namespace hemp {

/// Charges retired cycles against the periodic deadline workload for
/// controllers that have no explicit job queue.  Jobs are sequential: cycles
/// retire against the oldest submitted unfinished job; a job completes on
/// time when its cycles retire before its absolute deadline (+slack), and a
/// job whose deadline passes first is dropped as missed (partial work lost).
/// `slack` absorbs discretization: callers that only observe coarse slot
/// boundaries (the DP oracle) pass one slot so a job finishing inside the
/// deadline slot still counts.
class JobTracker {
 public:
  JobTracker(const PolicyWorkload& workload, Seconds slack = Seconds(0.0));

  /// Restore the constructed state: nothing submitted, no job pending.
  void reset();

  /// Advance the accounting to `now` given the cumulative retired cycles.
  void update(Seconds now, double cycles_retired);

  /// Bound the next step: the accounting state next changes at the next
  /// submission or the active job's deadline.
  void hint(SocStepHint& hint) const;

  [[nodiscard]] PolicyJobStats stats() const {
    return {submitted_, completed_, missed_};
  }

 private:
  PolicyWorkload workload_;
  Seconds slack_;
  Seconds next_submit_;
  /// Submitted, unadjudicated jobs.  Deadlines are strictly periodic, so the
  /// queue is just a count plus the oldest job's absolute deadline — no
  /// per-job storage (keeps update() allocation-free on the hot path).
  int pending_ = 0;
  Seconds front_deadline_{0.0};
  int submitted_ = 0;
  int completed_ = 0;
  int missed_ = 0;
  /// cycles_retired baseline the oldest pending job's progress counts from.
  double progress_base_ = 0.0;
  bool base_valid_ = false;
};

/// The full EnergyManager behind the PolicyController interface: an owned
/// manager (mode / hysteresis / queue discipline from `params`) fed one
/// deadline job per workload period from the phase on (a sense/compute duty
/// cycle).  Built exactly like the pre-policy fleet wired it, so the ported
/// legacy modes reproduce the original summary hashes.
class ManagedPolicyController final : public PolicyController {
 public:
  /// Manages on the exact ModelPlant over `model`.
  ManagedPolicyController(const SystemModel& model,
                          const EnergyManagerParams& params,
                          const PolicyWorkload& workload);
  /// Manages on `plant`, which must outlive the controller.
  ManagedPolicyController(ControlPlant& plant, const EnergyManagerParams& params,
                          const PolicyWorkload& workload);

  /// Starts the manager and re-arms the job clock at the workload phase; a
  /// second run starts from the constructed state, job counts included.
  void on_start(const SocState& state, SocCommand& cmd) override;
  void on_tick(const SocState& state, SocCommand& cmd) override;
  /// The manager's hint plus the job clock (inline below, for the batch kernel).
  void step_hint(const SocState& state, SocStepHint& hint) const override;

  [[nodiscard]] PolicyJobStats job_stats() const override;

 private:
  EnergyManager manager_;
  PolicyWorkload workload_;
  Seconds next_submit_;
  int jobs_submitted_ = 0;
};

inline void ManagedPolicyController::step_hint(const SocState& state,
                                               SocStepHint& hint) const {
  manager_.step_hint(state, hint);
  if (workload_.job_cycles > 0.0) hint.deadline(next_submit_.value());
}

/// MPP-tracking DVFS and nothing else: always regulated, always running,
/// never bypasses, never sprints — jobs ride the ambient throughput.
class GreedyMppController final : public PolicyController {
 public:
  GreedyMppController(const SystemModel& model, const MppTrackerParams& params,
                      const PolicyWorkload& workload);

  /// Restarts the job accounting too: a second run starts afresh.
  void on_start(const SocState& state, SocCommand& cmd) override;
  void on_tick(const SocState& state, SocCommand& cmd) override;
  void step_hint(const SocState& state, SocStepHint& hint) const override;

  [[nodiscard]] PolicyJobStats job_stats() const override {
    return jobs_.stats();
  }

 private:
  MppTrackingController tracker_;
  JobTracker jobs_;
};

/// Fixed duty cycle at the conventional MEP operating point: run the core
/// for `duty` of every window, idle the rest, independent of the harvest.
class DutyCycleController final : public PolicyController {
 public:
  DutyCycleController(const SystemModel& model, double duty, Seconds window,
                      const PolicyWorkload& workload);

  /// Restarts the job accounting too: a second run starts afresh.
  void on_start(const SocState& state, SocCommand& cmd) override;
  void on_tick(const SocState& state, SocCommand& cmd) override;
  void step_hint(const SocState& state, SocStepHint& hint) const override;

  [[nodiscard]] PolicyJobStats job_stats() const override {
    return jobs_.stats();
  }

 private:
  void apply(const SocState& state, SocCommand& cmd);
  [[nodiscard]] double next_edge(double t) const;

  double duty_;
  Seconds window_;
  MepPoint op_;
  JobTracker jobs_;
};

}  // namespace hemp
