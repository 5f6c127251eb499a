// Offline DP oracle: the optimal clairvoyant schedule for one node.
//
// Given the whole irradiance trace up front, dynamic programming over a
// discretized (time, stored-energy) grid computes the operating-point
// schedule (off / run at a DVFS ladder point / run at the conventional MEP)
// that maximizes retired cycles over the day.  The model is deliberately
// optimistic — harvest lands at the MPP every slot and the power path is
// lossless — so the oracle's score is a true upper bound on what any online
// policy can achieve under the transient engines (which pay regulator loss,
// tracking error, and rail dynamics).  What keeps the bound non-trivial is
// storage: energy above the cap is lost, so the DP must *spend* ahead of
// bright slots rather than hoard, exactly the scheduling question the online
// policies face.
//
// Formulation (DESIGN.md "policy layer" has the derivation):
//   state   e in [0, Emax], slots k = 0..K-1 of width dt = horizon / K
//   harvest h_k = Pmpp(g(t_k)) * dt   (slot-midpoint irradiance)
//   actions a with rail power p_a and cycle rate f_a (p_off = 0)
//   V_K(e) = 0
//   V_k(e) = max over a with p_a * dt <= e + h_k of
//            f_a * dt + V_{k+1}( min(e + h_k - p_a * dt, Emax) )
// with V linearly interpolated between energy levels.  The forward pass
// replays greedy-argmax decisions on the *continuous* energy state, so the
// reported score is achievable within the optimistic physics rather than an
// interpolation artifact; jobs are then adjudicated on the resulting cycle
// profile with one-slot slack (policy/controllers.hpp JobTracker).
#pragma once

#include <cstdint>
#include <vector>

#include "core/system_model.hpp"
#include "harvester/light_environment.hpp"
#include "policy/energy_policy.hpp"

namespace hemp {

struct DpOracleParams {
  int time_slots = 240;    ///< K: schedule granularity over the horizon
  int energy_levels = 48;  ///< M: stored-energy grid resolution
  /// Run actions: `ladder_points` voltages spanning the processor's DVFS
  /// range up to `vdd_ceiling`, plus the conventional MEP point.
  int ladder_points = 8;
  Volts vdd_ceiling{0.8};

  void validate() const;
};

class DpOracle {
 public:
  explicit DpOracle(const SystemModel& model, DpOracleParams params = {});

  /// One schedulable operating point.
  struct Action {
    bool run = false;
    Volts vdd{0.0};
    Hertz frequency{0.0};
    Watts power{0.0};  ///< rail draw at (vdd, max frequency)
  };

  struct Solution {
    double cycles = 0.0;        ///< retired cycles of the forward schedule
    Joules harvest_available{0.0};  ///< sum of per-slot MPP energy
    Joules spent{0.0};          ///< energy the schedule draws
    Seconds dt{0.0};            ///< slot width
    std::vector<std::uint8_t> schedule;  ///< action index per slot
    std::vector<Action> actions;
    PolicyJobStats jobs{};  ///< jobs.hit_rate() is the deadline hit rate
    Seconds off_time{0.0};      ///< total time spent in the off action
  };

  [[nodiscard]] Solution solve(const IrradianceTrace& trace, Seconds horizon,
                               Farads solar_capacitance, Volts start_voltage,
                               const PolicyWorkload& workload) const;

  [[nodiscard]] const std::vector<Action>& actions() const { return actions_; }

 private:
  const SystemModel* model_;
  DpOracleParams params_;
  std::vector<Action> actions_;  ///< index 0 is always "off"
  Volts v_storage_max_{0.0};     ///< full-sun open-circuit voltage (cap ceiling)
};

}  // namespace hemp
