// Deadline sprinting (paper Sec. VI-B, Figs. 9/11b): a job must finish by a
// deadline while the light dies.  Compares four strategies head to head:
// constant speed with and without bypass, and 20% sprinting with and without
// bypass — showing that sprint + bypass retires the most work.
#include <cstdio>
#include <memory>

#include "core/sprint_scheduler.hpp"
#include "regulator/buck.hpp"
#include "sim/soc_system.hpp"

int main() {
  using namespace hemp;
  using namespace hemp::literals;

  const PvCell cell = make_ixys_kxob22_cell();
  const BuckRegulator buck;
  const Processor proc = Processor::make_test_chip();
  const SystemModel model(cell, buck, proc);
  const SprintScheduler scheduler(model);

  const double cycles = 9.65e6;  // one 64x64 recognition frame
  const Seconds deadline = 14.0_ms;
  const auto dying_light = IrradianceTrace::ramp(1.0, 0.0, 0.5_ms, 6.0_ms);

  std::printf("=== Job: %.2f M cycles by %.0f ms while the light dies ===\n\n",
              cycles / 1e6, deadline.value() * 1e3);

  // Feasibility analysis first (Fig. 9a).
  const Joules cap_budget =
      capacitor_energy(47.0_uF, 1.2_V) - capacitor_energy(47.0_uF, 0.5_V);
  if (const auto t_min = scheduler.min_completion_time(cycles, 1.0, cap_budget)) {
    std::printf("energy analysis: fastest feasible completion at full sun = %.2f ms\n\n",
                t_min->value() * 1e3);
  }

  struct Strategy {
    const char* name;
    double sprint_factor;
    bool bypass;
  };
  const Strategy strategies[] = {
      {"constant speed, no bypass", 0.0, false},
      {"constant speed + bypass", 0.0, true},
      {"20% sprint,    no bypass", 0.2, false},
      {"20% sprint   + bypass", 0.2, true},
  };

  std::printf("%-28s %12s %10s %12s %10s\n", "strategy", "cycles (M)", "done?",
              "t_done (ms)", "bypass@ms");
  double best = 0.0;
  const char* best_name = "";
  for (const auto& s : strategies) {
    const SprintPlan plan = scheduler.plan(cycles, deadline, s.sprint_factor);
    if (!plan.feasible) {
      std::printf("%-28s %12s\n", s.name, "infeasible");
      continue;
    }
    SprintController ctrl(model, plan, s.bypass);
    SocSystem soc(SocConfig{}, std::make_unique<BuckRegulator>(),
                  Processor::make_test_chip());
    const SimResult r = soc.run(dying_light, ctrl, 50.0_ms);
    char t_done[16] = "-";
    if (ctrl.completion_time()) {
      std::snprintf(t_done, sizeof t_done, "%.2f",
                    ctrl.completion_time()->value() * 1e3);
    }
    char t_bypass[16] = "-";
    if (ctrl.bypass_time()) {
      std::snprintf(t_bypass, sizeof t_bypass, "%.2f",
                    ctrl.bypass_time()->value() * 1e3);
    }
    std::printf("%-28s %12.2f %10s %12s %10s\n", s.name, r.totals.cycles / 1e6,
                ctrl.job_done() ? "yes" : "no", t_done, t_bypass);
    if (r.totals.cycles > best) {
      best = r.totals.cycles;
      best_name = s.name;
    }
  }
  std::printf("\nmost work retired by: %s (%.2f M cycles)\n", best_name, best / 1e6);
  return 0;
}
