#include "core/energy_manager.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "core/model_plant.hpp"

namespace hemp {

void EnergyManagerParams::validate() const {
  tracker.validate();
  HEMP_REQUIRE(sprint_factor >= 0.0 && sprint_factor <= 0.5,
               "EnergyManager: sprint factor in [0, 0.5]");
  HEMP_REQUIRE(recover_voltage.value() > 0.0, "EnergyManager: bad recover voltage");
  HEMP_REQUIRE(bypass_enter_ratio > 0.0 && bypass_enter_ratio < bypass_exit_ratio,
               "EnergyManager: bypass hysteresis must satisfy enter < exit");
  HEMP_REQUIRE(reassess_period.value() > 0.0, "EnergyManager: bad reassess period");
}

EnergyManager::EnergyManager(const SystemModel& model,
                             const EnergyManagerParams& params)
    : EnergyManager(std::make_unique<ModelPlant>(model, params.tracker), params) {}

EnergyManager::EnergyManager(std::unique_ptr<ControlPlant> owned,
                             const EnergyManagerParams& params)
    : EnergyManager(*owned, params) {
  owned_plant_ = std::move(owned);
}

EnergyManager::EnergyManager(ControlPlant& plant, const EnergyManagerParams& params)
    : plant_(&plant), params_(params), tracker_(plant, params.tracker) {
  params_.validate();
  // The low-light crossover (Fig. 7a): the incoming power below which
  // bypassing the regulator delivers more to the core.  A zero crossover
  // power disables the bypass rule entirely (low_light_bypass_next guards on
  // it), so policies that forbid bypassing skip the solve.
  crossover_power_ =
      params_.low_light_bypass_enabled ? plant.crossover_power() : Watts(0.0);
  full_sun_mpp_power_ = plant.full_sun_mpp().power;
}

void EnergyManager::submit(const JobRequest& job) { submit_at(job, run_.now); }

void EnergyManager::submit_at(const JobRequest& job, Seconds now) {
  // hemp-analyzer: allow(hot-path-purity) — precondition checks on the submit API
  HEMP_REQUIRE(job.cycles > 0.0, "EnergyManager: job needs positive cycles");
  // hemp-analyzer: allow(hot-path-purity) — precondition checks on the submit API
  HEMP_REQUIRE(job.relative_deadline.value() > 0.0,
               "EnergyManager: job needs a positive deadline");
  if (run_.q_count == run_.queue.size()) {
    // hemp-analyzer: allow(hot-path-purity) — amortized ring growth past 16 pending jobs
    grow_queue();
  }
  std::vector<PendingJob>& queue = run_.queue;
  queue[(run_.q_head + run_.q_count) % queue.size()] =
      PendingJob{job, now + job.relative_deadline};
  ++run_.q_count;
}

EnergyManager::PendingJob EnergyManager::pop_job() {
  std::vector<PendingJob>& queue = run_.queue;
  const std::size_t head = run_.q_head;
  std::size_t pick = 0;
  if (params_.queue_discipline == QueueDiscipline::kEdf) {
    for (std::size_t i = 1; i < run_.q_count; ++i) {
      const std::size_t at = (head + i) % queue.size();
      const std::size_t best = (head + pick) % queue.size();
      if (queue[at].absolute_deadline < queue[best].absolute_deadline) pick = i;
    }
  }
  const PendingJob job = queue[(head + pick) % queue.size()];
  // Close the gap by shifting earlier entries up one slot (FIFO picks the
  // head, so the loop body never runs and the original pop survives intact).
  for (std::size_t i = pick; i > 0; --i) {
    queue[(head + i) % queue.size()] = queue[(head + i - 1) % queue.size()];
  }
  run_.q_head = (head + 1) % queue.size();
  --run_.q_count;
  return job;
}

void EnergyManager::grow_queue() {
  std::vector<PendingJob> bigger(run_.queue.size() * 2);
  for (std::size_t i = 0; i < run_.q_count; ++i) {
    bigger[i] = run_.queue[(run_.q_head + i) % run_.queue.size()];
  }
  run_.queue = std::move(bigger);
  run_.q_head = 0;
}

void EnergyManager::on_start(const SocState& state, SocCommand& cmd) {
  if (started_) run_ = RunState{};
  started_ = true;
  run_.now = state.time;
  tracker_.on_start(state, cmd);
  run_.prev_v_solar = state.v_solar;
  enter_tracking(cmd);
}

void EnergyManager::enter_tracking(SocCommand& cmd) {
  run_.state = State::kTracking;
  cmd.path = run_.low_light_bypass ? PowerPath::kBypass : PowerPath::kRegulated;
  cmd.run = true;
  if (params_.mode == ManagerMode::kMinEnergy && !run_.low_light_bypass) {
    apply_mep_point(cmd, 0.5);
  }
}

void EnergyManager::apply_mep_point(SocCommand& cmd, double g_estimate) {
  // Quantize to 0.05-sun buckets: the MEP barely moves with light, and the
  // holistic solve is far too expensive to run per tick.
  const int bucket = static_cast<int>(g_estimate * 20.0 + 0.5);
  std::optional<MepPoint>& slot = mep_cache_[static_cast<std::size_t>(bucket)];
  if (!slot) {
    // hemp-analyzer: allow(hot-path-purity) — memoized holistic MEP solve, once per light bucket
    slot = plant_->holistic_mep(std::max(bucket, 1) / 20.0);
  }
  const MepPoint& mep = *slot;
  if (mep.feasible) {
    cmd.vdd_target = mep.vdd;
    cmd.frequency = mep.frequency;
  }
}

const SprintPlan& EnergyManager::plan_for(double cycles, Seconds budget) {
  const std::uint64_t cycles_bits = std::bit_cast<std::uint64_t>(cycles);
  const std::uint64_t budget_bits = std::bit_cast<std::uint64_t>(budget.value());
  if (!plan_memo_ || plan_memo_->cycles_bits != cycles_bits ||
      plan_memo_->budget_bits != budget_bits) {
    plan_memo_ = PlanMemo{cycles_bits, budget_bits,
                          // hemp-analyzer: allow(hot-path-purity) — memoized sprint plan, once per distinct (cycles, budget)
                          plant_->sprint_plan(cycles, budget, params_.sprint_factor)};
  }
  return plan_memo_->plan;
}

HEMP_HOT void EnergyManager::on_tick(const SocState& state, SocCommand& cmd) {
  run_.now = state.time;
  run_.tracker_ticked = false;
  switch (run_.state) {
    case State::kTracking: tick_tracking(state, cmd); break;
    case State::kSprinting: tick_sprinting(state, cmd); break;
    case State::kRecovering: tick_recovering(state, cmd); break;
  }
}

void EnergyManager::refresh_light_estimate(const SocState& state,
                                           const SocCommand& cmd) {
  if (state.time < run_.next_reassess) return;
  run_.next_reassess = state.time + params_.reassess_period;
  // Near equilibrium the node voltage is steady and the source draw equals
  // the incoming solar power — the only observable a real board has without
  // a current sensor.
  const double dv = std::fabs(state.v_solar.value() - run_.prev_v_solar.value());
  run_.prev_v_solar = state.v_solar;
  if (dv > 0.01) return;  // node still slewing; estimate would be biased
  double p_draw = state.p_processor.value();
  if (!run_.low_light_bypass && p_draw > 0.0) {
    if (plant_->supports(state.v_solar, cmd.vdd_target)) {
      const double eta = plant_->efficiency(state.v_solar, cmd.vdd_target, Watts(p_draw));
      if (eta > 0.0) p_draw /= eta;
    }
  }
  if (p_draw > 0.0) run_.p_in_estimate = Watts(p_draw);

  if (run_.p_in_estimate) {
    run_.low_light_bypass = low_light_bypass_next(
        run_.low_light_bypass, *run_.p_in_estimate, crossover_power_,
        params_.bypass_enter_ratio, params_.bypass_exit_ratio);
  }
}

void EnergyManager::start_next_job(const SocState& state, SocCommand& cmd) {
  const PendingJob pending = pop_job();
  const JobRequest& job = pending.job;
  Seconds budget = job.relative_deadline;
  if (params_.queue_discipline == QueueDiscipline::kEdf) {
    // EDF plans against the wall clock: a job that waited in the queue has
    // only its remaining slack, and a stale job is dropped rather than run.
    budget = pending.absolute_deadline - state.time;
    if (budget.value() <= 0.0) {
      ++run_.jobs_missed;
      return;
    }
  }
  const SprintPlan& plan = plan_for(job.cycles, budget);
  if (!plan.feasible) {
    ++run_.jobs_missed;
    return;
  }
  run_.sprint = ActiveSprint{plan, state.time, state.cycles_retired, false};
  run_.state = State::kSprinting;
  cmd.path = PowerPath::kRegulated;
  cmd.vdd_target = plan.slow.vdd;
  cmd.frequency = plan.slow.frequency;
  cmd.run = true;
}

void EnergyManager::tick_tracking(const SocState& state, SocCommand& cmd) {
  if (!queue_empty()) {
    start_next_job(state, cmd);
    return;
  }
  refresh_light_estimate(state, cmd);
  if (run_.low_light_bypass) {
    cmd.path = PowerPath::kBypass;
    // Ride the shared node: clock as fast as the rail allows.
    if (state.v_dd >= plant_->min_voltage() && state.v_dd <= plant_->max_voltage()) {
      cmd.frequency = plant_->max_frequency(state.v_dd);
      cmd.run = true;
    } else {
      cmd.run = false;  // wait for the node to charge back up
    }
    return;
  }
  cmd.path = PowerPath::kRegulated;
  if (params_.mode == ManagerMode::kMaxPerformance) {
    run_.tracker_ticked = true;
    tracker_.on_tick(state, cmd);
  } else {
    const double g = run_.p_in_estimate
                         ? std::clamp(run_.p_in_estimate->value() /
                                          std::max(full_sun_mpp_power_.value(), 1e-9),
                                      0.05, 1.0)
                         : 0.5;
    apply_mep_point(cmd, g);
  }
}

void EnergyManager::tick_sprinting(const SocState& state, SocCommand& cmd) {
  ActiveSprint& s = *run_.sprint;
  const double done_cycles = state.cycles_retired - s.start_cycles;
  const Seconds elapsed = state.time - s.started;

  if (done_cycles >= s.plan.cycles) {
    ++run_.jobs_completed;
    run_.sprint.reset();
    run_.state = State::kRecovering;
    cmd.run = false;
    cmd.path = PowerPath::kRegulated;
    return;
  }
  if (elapsed > s.plan.deadline * 1.5) {
    ++run_.jobs_missed;
    run_.sprint.reset();
    run_.state = State::kRecovering;
    cmd.run = false;
    cmd.path = PowerPath::kRegulated;
    return;
  }

  if (s.bypassed) {
    // The shared node can overshoot Vmax under strong sun: clock at the
    // envelope's top there.
    if (state.v_dd >= plant_->min_voltage()) {
      cmd.frequency = plant_->max_frequency(std::min(state.v_dd, plant_->max_voltage()));
    }
    return;
  }

  const OperatingPoint& op =
      elapsed < s.plan.phase_time ? s.plan.slow : s.plan.fast;
  cmd.vdd_target = op.vdd;
  cmd.frequency = op.frequency;

  const bool no_headroom = !plant_->supports(state.v_solar, op.vdd);
  const bool sagging = state.v_dd.value() < op.vdd.value() - kSprintSagMargin &&
                       elapsed.value() > kSprintSagArmTime;
  if (no_headroom || sagging) {
    s.bypassed = true;
    cmd.path = PowerPath::kBypass;
  }
}

void EnergyManager::tick_recovering(const SocState& state, SocCommand& cmd) {
  // Large duty cycle: idle the core and let the harvester refill the storage
  // cap (paper Sec. VI-B closing remark).
  cmd.run = false;
  cmd.path = PowerPath::kRegulated;
  if (state.v_solar >= params_.recover_voltage || !queue_empty()) {
    enter_tracking(cmd);
  }
}

}  // namespace hemp
