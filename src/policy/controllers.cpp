#include "policy/controllers.hpp"

#include <cmath>

#include "common/error.hpp"

namespace hemp {

// --- PolicyWorkload ---------------------------------------------------------

void PolicyWorkload::validate() const {
  HEMP_REQUIRE(job_cycles >= 0.0, "PolicyWorkload: negative job cycles");
  if (job_cycles > 0.0) {
    HEMP_REQUIRE(period.value() > 0.0 && deadline.value() > 0.0,
                 "PolicyWorkload: jobs need positive period and deadline");
  }
}

// --- JobTracker -------------------------------------------------------------

JobTracker::JobTracker(const PolicyWorkload& workload, Seconds slack)
    : workload_(workload), slack_(slack), next_submit_(workload.phase) {
  workload.validate();
}

void JobTracker::reset() { *this = JobTracker(workload_, slack_); }

void JobTracker::update(Seconds now, double cycles_retired) {
  if (workload_.job_cycles <= 0.0) return;
  while (now >= next_submit_) {
    if (pending_ == 0) front_deadline_ = next_submit_ + workload_.deadline;
    ++pending_;
    next_submit_ += workload_.period;
    ++submitted_;
  }
  while (pending_ > 0) {
    if (!base_valid_) {
      progress_base_ = cycles_retired;
      base_valid_ = true;
    }
    const double done = cycles_retired - progress_base_;
    if (done >= workload_.job_cycles) {
      // Finished by the time we looked; on time iff we are not past the
      // deadline (hints schedule a look exactly at the deadline).
      if (now <= front_deadline_ + slack_) ++completed_; else ++missed_;
      --pending_;
      front_deadline_ += workload_.period;
      progress_base_ += workload_.job_cycles;  // leftover rolls into the next job
      continue;
    }
    if (now >= front_deadline_ + slack_) {
      ++missed_;
      --pending_;
      front_deadline_ += workload_.period;
      progress_base_ = cycles_retired;  // abandoned partial work is wasted
      continue;
    }
    break;
  }
  if (pending_ == 0) base_valid_ = false;
}

void JobTracker::hint(SocStepHint& hint) const {
  if (workload_.job_cycles <= 0.0) return;
  hint.deadline(next_submit_.value());
  if (pending_ > 0) hint.deadline(front_deadline_.value());
}

// --- ManagedPolicyController ------------------------------------------------

ManagedPolicyController::ManagedPolicyController(const SystemModel& model,
                                                 const EnergyManagerParams& params,
                                                 const PolicyWorkload& workload)
    : manager_(model, params), workload_(workload), next_submit_(workload.phase) {
  workload.validate();
}

ManagedPolicyController::ManagedPolicyController(ControlPlant& plant,
                                                 const EnergyManagerParams& params,
                                                 const PolicyWorkload& workload)
    : manager_(plant, params), workload_(workload), next_submit_(workload.phase) {
  workload.validate();
}

void ManagedPolicyController::on_start(const SocState& state, SocCommand& cmd) {
  next_submit_ = workload_.phase;
  jobs_submitted_ = 0;
  manager_.on_start(state, cmd);
}

void ManagedPolicyController::on_tick(const SocState& state, SocCommand& cmd) {
  if (workload_.job_cycles > 0.0 && state.time >= next_submit_) {
    manager_.submit_at({workload_.job_cycles, workload_.deadline}, state.time);
    ++jobs_submitted_;
    next_submit_ += workload_.period;
  }
  manager_.on_tick(state, cmd);
}

PolicyJobStats ManagedPolicyController::job_stats() const {
  return {jobs_submitted_, manager_.jobs_completed(), manager_.jobs_missed()};
}

// --- GreedyMppController ----------------------------------------------------

GreedyMppController::GreedyMppController(const SystemModel& model,
                                         const MppTrackerParams& params,
                                         const PolicyWorkload& workload)
    : tracker_(model, params), jobs_(workload) {}

void GreedyMppController::on_start(const SocState& state, SocCommand& cmd) {
  jobs_.reset();
  tracker_.on_start(state, cmd);
  cmd.path = PowerPath::kRegulated;
  cmd.run = true;
  jobs_.update(state.time, state.cycles_retired);
}

void GreedyMppController::on_tick(const SocState& state, SocCommand& cmd) {
  jobs_.update(state.time, state.cycles_retired);
  tracker_.on_tick(state, cmd);
  cmd.path = PowerPath::kRegulated;
  cmd.run = true;
}

void GreedyMppController::step_hint(const SocState& state,
                                    SocStepHint& hint) const {
  hint.event_driven = true;
  tracker_.step_hint(state, hint);
  jobs_.hint(hint);
}

// --- DutyCycleController ----------------------------------------------------

DutyCycleController::DutyCycleController(const SystemModel& model, double duty,
                                         Seconds window,
                                         const PolicyWorkload& workload)
    : duty_(duty), window_(window), jobs_(workload) {
  HEMP_REQUIRE(duty > 0.0 && duty <= 1.0, "DutyCycleController: duty in (0, 1]");
  HEMP_REQUIRE(window.value() > 0.0, "DutyCycleController: positive window");
  op_ = MepOptimizer(model).conventional();
  HEMP_REQUIRE(op_.feasible, "DutyCycleController: conventional MEP infeasible");
}

void DutyCycleController::apply(const SocState& state, SocCommand& cmd) {
  const double phase = std::fmod(state.time.value(), window_.value());
  cmd.path = PowerPath::kRegulated;
  cmd.vdd_target = op_.vdd;
  cmd.frequency = op_.frequency;
  cmd.run = phase < duty_ * window_.value();
}

void DutyCycleController::on_start(const SocState& state, SocCommand& cmd) {
  jobs_.reset();
  apply(state, cmd);
  jobs_.update(state.time, state.cycles_retired);
}

void DutyCycleController::on_tick(const SocState& state, SocCommand& cmd) {
  jobs_.update(state.time, state.cycles_retired);
  apply(state, cmd);
}

double DutyCycleController::next_edge(double t) const {
  const double w = window_.value();
  const double k = std::floor(t / w);
  const double phase = t - k * w;
  const double edge = phase < duty_ * w ? (k + duty_) * w : (k + 1.0) * w;
  // Guard the exact-boundary case so a hinted deadline always advances time.
  return edge > t ? edge : t + 1e-9;
}

void DutyCycleController::step_hint(const SocState& state,
                                    SocStepHint& hint) const {
  hint.event_driven = true;
  hint.deadline(next_edge(state.time.value()));
  jobs_.hint(hint);
}

}  // namespace hemp
