#include "policy/oracle.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/mep_optimizer.hpp"
#include "policy/controllers.hpp"

namespace hemp {

void DpOracleParams::validate() const {
  HEMP_REQUIRE(time_slots >= 2, "DpOracle: need at least 2 time slots");
  HEMP_REQUIRE(energy_levels >= 2, "DpOracle: need at least 2 energy levels");
  HEMP_REQUIRE(ladder_points >= 1, "DpOracle: need at least 1 ladder point");
  HEMP_REQUIRE(vdd_ceiling.value() > 0.0, "DpOracle: bad vdd ceiling");
}

DpOracle::DpOracle(const SystemModel& model, DpOracleParams params)
    : model_(&model), params_(params) {
  params_.validate();
  const Processor& proc = model.processor();
  // Action 0 is "off": nothing drawn, nothing retired, always feasible.
  actions_.push_back(Action{});
  // DVFS ladder: `ladder_points` voltages spanning [Vmin, ceiling].
  const double v_lo = proc.min_voltage().value();
  const double v_hi = std::min(proc.max_voltage().value(),
                               params_.vdd_ceiling.value());
  HEMP_REQUIRE(v_hi >= v_lo, "DpOracle: vdd ceiling below the DVFS range");
  const int n = params_.ladder_points;
  for (int i = 0; i < n; ++i) {
    const double v =
        n == 1 ? v_hi : v_lo + (v_hi - v_lo) * static_cast<double>(i) / (n - 1);
    Action a;
    a.run = true;
    a.vdd = Volts(v);
    a.frequency = proc.max_frequency(a.vdd);
    a.power = proc.power({a.vdd, a.frequency});
    actions_.push_back(a);
  }
  // The conventional MEP point: the lowest-energy-per-cycle throttle, which
  // the evenly spaced ladder usually straddles without hitting.
  const MepPoint mep = MepOptimizer(model).conventional();
  if (mep.feasible && mep.vdd.value() <= v_hi) {
    Action a;
    a.run = true;
    a.vdd = mep.vdd;
    a.frequency = mep.frequency;
    a.power = proc.power({a.vdd, a.frequency});
    actions_.push_back(a);
  }
  v_storage_max_ = model.cell().open_circuit_voltage(1.0);
}

DpOracle::Solution DpOracle::solve(const IrradianceTrace& trace,
                                   Seconds horizon, Farads solar_capacitance,
                                   Volts start_voltage,
                                   const PolicyWorkload& workload) const {
  HEMP_REQUIRE(horizon.value() > 0.0, "DpOracle: positive horizon");
  HEMP_REQUIRE(solar_capacitance.value() > 0.0, "DpOracle: positive capacitance");
  const int slots = params_.time_slots;
  const int levels = params_.energy_levels;
  const double dt = horizon.value() / slots;
  const double c = solar_capacitance.value();
  const double e_max = 0.5 * c * v_storage_max_.value() * v_storage_max_.value();
  const double v0 = std::min(start_voltage.value(), v_storage_max_.value());
  const double e_start = 0.5 * c * v0 * v0;
  const double de = e_max / (levels - 1);

  // Per-slot harvest at the maximum power point (midpoint irradiance; the
  // 0.01-sun rounding keeps the exact MPP solves bounded and cache-served).
  std::vector<double> harvest(static_cast<std::size_t>(slots));
  double harvest_total = 0.0;
  for (int k = 0; k < slots; ++k) {
    const double t_mid = (k + 0.5) * dt;
    const double g =
        std::round(std::clamp(trace.at(Seconds(t_mid)), 0.0, 1.0) * 100.0) / 100.0;
    const double p = g > 0.0 ? model_->mpp(g).power.value() : 0.0;
    harvest[static_cast<std::size_t>(k)] = p * dt;
    harvest_total += p * dt;
  }

  const auto interp = [&](const std::vector<double>& v, double e) {
    const double x = std::clamp(e, 0.0, e_max) / de;
    const int lo = std::min(static_cast<int>(x), levels - 2);
    const double frac = x - lo;
    const std::size_t i = static_cast<std::size_t>(lo);
    return v[i] * (1.0 - frac) + v[i + 1] * frac;
  };
  const auto best_action = [&](const std::vector<double>& future, double e,
                               int k, double* best_value) {
    const double avail = e + harvest[static_cast<std::size_t>(k)];
    int best = 0;
    double best_v = interp(future, std::min(avail, e_max));  // "off"
    for (std::size_t a = 1; a < actions_.size(); ++a) {
      const double spend = actions_[a].power.value() * dt;
      if (spend > avail) continue;
      const double v = actions_[a].frequency.value() * dt +
                       interp(future, std::min(avail - spend, e_max));
      if (v > best_v) {
        best_v = v;
        best = static_cast<int>(a);
      }
    }
    if (best_value != nullptr) *best_value = best_v;
    return best;
  };
  // Backward value pass, keeping every slot's table: the forward pass needs
  // V_{k+1} at each slot k to replay the argmax decisions.
  std::vector<std::vector<double>> tables(static_cast<std::size_t>(slots) + 1,
                                          std::vector<double>(levels, 0.0));
  for (int k = slots - 1; k >= 0; --k) {
    for (int m = 0; m < levels; ++m) {
      double v = 0.0;
      best_action(tables[static_cast<std::size_t>(k) + 1], m * de, k, &v);
      tables[static_cast<std::size_t>(k)][static_cast<std::size_t>(m)] = v;
    }
  }

  // Forward pass on the continuous energy state: replay the argmax decision
  // per slot so the reported schedule is self-consistent (the DP value is an
  // interpolated bound; the forward score is what the schedule achieves).
  Solution sol;
  sol.dt = Seconds(dt);
  sol.actions = actions_;
  sol.schedule.resize(static_cast<std::size_t>(slots));
  sol.harvest_available = Joules(harvest_total);
  // Job accounting with one slot of slack: the DP only observes slot
  // boundaries, so a deadline inside slot k adjudicates at the end of it.
  JobTracker jobs(workload, Seconds(dt));
  double e = e_start;
  double cycles = 0.0;
  double spent = 0.0;
  double off_time = 0.0;
  for (int k = 0; k < slots; ++k) {
    const int a = best_action(tables[static_cast<std::size_t>(k) + 1], e, k, nullptr);
    sol.schedule[static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(a);
    const Action& act = actions_[static_cast<std::size_t>(a)];
    const double avail = e + harvest[static_cast<std::size_t>(k)];
    const double spend = act.power.value() * dt;
    e = std::min(avail - spend, e_max);
    cycles += act.frequency.value() * dt;
    spent += spend;
    if (!act.run) off_time += dt;
    jobs.update(Seconds((k + 1) * dt), cycles);
  }
  jobs.update(horizon, cycles);
  sol.cycles = cycles;
  sol.spent = Joules(spent);
  sol.off_time = Seconds(off_time);
  sol.jobs = jobs.stats();
  return sol;
}

}  // namespace hemp
