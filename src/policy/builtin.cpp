// The built-in energy-policy zoo.
//
// Registered names (stable; scenario files and CLIs key on them):
//   mpp_track      — ported legacy max-performance mode (EnergyManager,
//                    kMaxPerformance): MPP-tracking DVFS + bypass + sprints.
//   mep_hold       — ported legacy min-energy mode (EnergyManager,
//                    kMinEnergy): hold the holistic MEP + bypass + sprints.
//   greedy_mpp     — MPP-chasing DVFS with no management at all (no MEP
//                    logic, no bypass, no sprint planning).
//   hyst_eager     — mpp_track with an eager bypass window (enter 1.1x /
//                    exit 1.5x crossover): prefers the unregulated path.
//   hyst_reluctant — mpp_track with a reluctant window (enter 0.5x / exit
//                    0.7x): clings to the regulator deep into low light.
//   edf_sprint     — mpp_track with the job queue drained earliest-deadline-
//                    first against absolute deadlines (stale jobs dropped).
//   duty25 / duty50 — fixed 25% / 50% duty cycle at the conventional MEP
//                    operating point, windows tied to the job period.
//   oracle_dp      — clairvoyant DP upper bound (policy/oracle.hpp); offline
//                    scored, never simulated.
//
// The two ported modes are the bit-compatibility contract: they construct
// exactly the EnergyManager and periodic job clock the pre-policy fleet
// hardwired (default params, fast path off), so legacy scenarios hash
// identically.  Every other policy is new surface and opts into the
// single-node fast path and/or the batch kernel where its semantics allow.

#include <memory>
#include <utility>

#include "common/error.hpp"
#include "policy/controllers.hpp"
#include "policy/oracle.hpp"
#include "policy/registry.hpp"

namespace hemp {

namespace {

/// EnergyManager-backed policies: the ported legacy modes plus every variant
/// expressible as a manager parameterization (hysteresis windows, EDF).
class ManagedPolicy final : public EnergyPolicy {
 public:
  ManagedPolicy(std::string name, std::string description,
                EnergyManagerParams params, bool fast_path)
      : name_(std::move(name)), description_(std::move(description)),
        params_(params), fast_path_(fast_path) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::string description() const override { return description_; }
  [[nodiscard]] std::optional<EnergyManagerParams> manager_params() const override {
    return params_;
  }
  [[nodiscard]] bool fast_path() const override { return fast_path_; }

  [[nodiscard]] std::unique_ptr<PolicyController> make_controller(
      const PolicyContext& ctx) const override {
    HEMP_REQUIRE(ctx.model != nullptr, "ManagedPolicy: null model");
    return std::make_unique<ManagedPolicyController>(*ctx.model, params_,
                                                     ctx.workload);
  }

 private:
  std::string name_;
  std::string description_;
  EnergyManagerParams params_;
  bool fast_path_;
};

class GreedyMppPolicy final : public EnergyPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "greedy_mpp"; }
  [[nodiscard]] std::string description() const override {
    return "MPP-chasing DVFS, no MEP/bypass/sprint management";
  }
  [[nodiscard]] bool fast_path() const override { return true; }

  [[nodiscard]] std::unique_ptr<PolicyController> make_controller(
      const PolicyContext& ctx) const override {
    HEMP_REQUIRE(ctx.model != nullptr, "GreedyMppPolicy: null model");
    MppTrackerParams params;
    params.solar_capacitance = ctx.solar_capacitance;
    return std::make_unique<GreedyMppController>(*ctx.model, params,
                                                 ctx.workload);
  }
};

class DutyCyclePolicy final : public EnergyPolicy {
 public:
  DutyCyclePolicy(std::string name, double duty)
      : name_(std::move(name)), duty_(duty) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::string description() const override {
    return "fixed " + std::to_string(static_cast<int>(duty_ * 100.0)) +
           "% duty cycle at the conventional MEP point";
  }
  [[nodiscard]] bool fast_path() const override { return true; }

  [[nodiscard]] std::unique_ptr<PolicyController> make_controller(
      const PolicyContext& ctx) const override {
    HEMP_REQUIRE(ctx.model != nullptr, "DutyCyclePolicy: null model");
    // Window rides the job period so each window carries one job's worth of
    // on-time; workload-free runs fall back to a 10 ms window.
    const Seconds window = ctx.workload.job_cycles > 0.0
                               ? ctx.workload.period
                               : Seconds(10e-3);
    return std::make_unique<DutyCycleController>(*ctx.model, duty_, window,
                                                 ctx.workload);
  }

 private:
  std::string name_;
  double duty_;
};

class OraclePolicy final : public EnergyPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "oracle_dp"; }
  [[nodiscard]] std::string description() const override {
    return "clairvoyant DP schedule upper bound (offline scored)";
  }

  [[nodiscard]] std::optional<OfflineScore> offline(
      const PolicyContext& ctx) const override {
    HEMP_REQUIRE(ctx.model != nullptr, "OraclePolicy: null model");
    HEMP_REQUIRE(ctx.trace != nullptr,
                 "OraclePolicy: offline scoring needs the irradiance trace");
    const DpOracle oracle(*ctx.model);
    const DpOracle::Solution sol =
        oracle.solve(*ctx.trace, ctx.day_length, ctx.solar_capacitance,
                     ctx.solar_start_voltage, ctx.workload);
    OfflineScore score;
    score.cycles = sol.cycles;
    score.harvested = sol.harvest_available;
    score.delivered = sol.spent;
    score.jobs_submitted = sol.jobs.submitted;
    score.jobs_completed = sol.jobs.completed;
    score.jobs_missed = sol.jobs.missed;
    score.deadline_hit_rate = sol.deadline_hit_rate;
    score.halted = sol.off_time;
    return score;
  }

  [[nodiscard]] std::unique_ptr<PolicyController> make_controller(
      const PolicyContext& ctx) const override {
    (void)ctx;
    throw ModelError(
        "oracle_dp is offline-only: it scores nodes analytically via "
        "offline() and has no transient controller");
  }
};

}  // namespace

std::unique_ptr<EnergyPolicy> make_managed_policy(std::string name,
                                                  std::string description,
                                                  const EnergyManagerParams& params,
                                                  bool fast_path) {
  return std::make_unique<ManagedPolicy>(std::move(name), std::move(description),
                                         params, fast_path);
}

void register_builtin_policies(PolicyRegistry& registry) {
  {
    // Ported legacy max-performance mode — default params, exactly as the
    // pre-policy fleet constructed it.  No fast path: the legacy hash
    // contract runs through the reference engine (its params are the batch
    // kernel's default lane).
    EnergyManagerParams params;
    params.mode = ManagerMode::kMaxPerformance;
    registry.add(make_managed_policy(
        "mpp_track",
        "legacy max-performance: MPP-tracking DVFS + bypass + sprints",
        params, false));
  }
  {
    // Ported legacy min-energy mode.
    EnergyManagerParams params;
    params.mode = ManagerMode::kMinEnergy;
    registry.add(make_managed_policy(
        "mep_hold",
        "legacy min-energy: hold the holistic MEP + bypass + sprints",
        params, false));
  }
  {
    EnergyManagerParams params;
    params.bypass_enter_ratio = 1.1;
    params.bypass_exit_ratio = 1.5;
    registry.add(make_managed_policy(
        "hyst_eager",
        "mpp_track with an eager bypass window (enter 1.1x, exit 1.5x)",
        params, true));
  }
  {
    EnergyManagerParams params;
    params.bypass_enter_ratio = 0.5;
    params.bypass_exit_ratio = 0.7;
    registry.add(make_managed_policy(
        "hyst_reluctant",
        "mpp_track with a reluctant bypass window (enter 0.5x, exit 0.7x)",
        params, true));
  }
  {
    EnergyManagerParams params;
    params.queue_discipline = QueueDiscipline::kEdf;
    registry.add(make_managed_policy(
        "edf_sprint",
        "mpp_track draining the job queue earliest-deadline-first",
        params, true));
  }
  registry.add(std::make_unique<GreedyMppPolicy>());
  registry.add(std::make_unique<DutyCyclePolicy>("duty25", 0.25));
  registry.add(std::make_unique<DutyCyclePolicy>("duty50", 0.50));
  registry.add(std::make_unique<OraclePolicy>());
}

}  // namespace hemp
