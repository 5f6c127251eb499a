// Pluggable energy-management policies (the paper's contribution 2 opened up).
//
// The repo originally hardwired exactly two management schemes inside
// EnergyManager (max-performance MPP tracking and min-energy MEP hold).  This
// layer turns "which management policy?" into data: an EnergyPolicy names a
// strategy, builds a per-node SocController for the transient engines, and —
// for offline policies with a known sky — scores a node analytically instead
// of simulating it.  A name-keyed registry (policy/registry.hpp) lets
// scenarios, CLIs, and the tournament harness select policies by string.
//
// Three execution tiers, fastest first:
//   * manager_params()  — EnergyManager-backed policies expose their
//     parameters; the SoA batch fleet kernel runs those its lane admits
//     (BatchFleetKernel::runs: a FIFO job queue on the 48-step DVFS ladder),
//     stepping the same EnergyManager on its flat plant of shared surfaces;
//   * make_controller() — every online policy builds a SocController;
//     controllers that implement SocController::step_hint run on the
//     single-node surface-only fast path (policies opt in via fast_path());
//   * offline()         — policies that need the whole irradiance trace ahead
//     of time (the DP oracle) return an analytic per-node score.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/units.hpp"
#include "core/energy_manager.hpp"
#include "core/system_model.hpp"
#include "harvester/light_environment.hpp"
#include "sim/soc_system.hpp"
#include "storage/capacitor.hpp"

namespace hemp {

/// Periodic deadline-job workload one node runs (mirrors the fleet scenario's
/// job fields; cycles == 0 disables the workload).
struct PolicyWorkload {
  double job_cycles = 0.0;
  Seconds period{0.0};
  Seconds deadline{0.0};
  Seconds phase{0.0};

  /// Cycles must be non-negative; a workload with jobs needs a positive
  /// period and deadline.
  void validate() const;
};

/// Everything a policy needs to build (or score) one node's controller.
struct PolicyContext {
  /// Holistic model of this node's cell + regulator + processor.  Non-owning;
  /// must outlive the built controller.
  const SystemModel* model = nullptr;
  PolicyWorkload workload{};
  Seconds day_length{0.0};
  Farads solar_capacitance = kSolarNodeCapacitance;
  Farads vdd_capacitance = kVddRailCapacitance;
  Volts solar_start_voltage{1.2};
  /// The node's sky, known ahead of time.  Required by offline policies;
  /// online policies must ignore it (they only observe the SocState).
  const IrradianceTrace* trace = nullptr;
};

/// Job accounting every policy controller reports after a run.
struct PolicyJobStats {
  int submitted = 0;
  int completed = 0;
  int missed = 0;

  /// The deadline hit rate: completed over adjudicated (completed + missed)
  /// jobs, 1.0 when none was adjudicated.
  [[nodiscard]] double hit_rate() const {
    const int adjudicated = completed + missed;
    return adjudicated > 0 ? static_cast<double>(completed) / adjudicated : 1.0;
  }
};

/// A SocController that also carries its own job accounting (the fleet
/// reduction reads these instead of poking concrete controller types).
class PolicyController : public SocController {
 public:
  [[nodiscard]] virtual PolicyJobStats job_stats() const = 0;
};

/// Analytic per-node score returned by offline policies (the DP oracle):
/// the outcome the fleet reduction records *instead of* simulating the node.
/// Of the totals it fills cycles, harvested (the energy available at MPP
/// over the horizon), delivered_to_processor (what the schedule spends) and
/// halted_time.
struct OfflineScore {
  SimTotals totals;
  PolicyJobStats jobs;
};

class EnergyPolicy {
 public:
  virtual ~EnergyPolicy() = default;

  /// Registry key ([a-z0-9_], stable across releases).
  [[nodiscard]] virtual std::string name() const = 0;
  /// One-line human description (printed by --help and the tournament).
  [[nodiscard]] virtual std::string description() const = 0;

  /// Offline analytic score for a node with a known sky; nullopt for online
  /// policies.  When this returns a value the fleet records it verbatim and
  /// never builds a controller.  `ctx.trace` must be non-null.
  [[nodiscard]] virtual std::optional<OfflineScore> offline(
      const PolicyContext& ctx) const {
    (void)ctx;
    return std::nullopt;
  }

  /// The EnergyManager parameters behind the policy's controller; nullopt
  /// for policies that do not run an EnergyManager.
  [[nodiscard]] virtual std::optional<EnergyManagerParams> manager_params() const {
    return std::nullopt;
  }

  /// True when the policy's controller implements a sound
  /// SocController::step_hint and single-node runs may enable
  /// SocConfig::fast_path.  The two ported EnergyManager modes return false
  /// here: the legacy fleet path is the bit-compatibility contract and stays
  /// on the dense reference loop.
  [[nodiscard]] virtual bool fast_path() const { return false; }

  /// Build a fresh controller for one node.  The returned controller keeps a
  /// reference to ctx.model and must not outlive it.
  [[nodiscard]] virtual std::unique_ptr<PolicyController> make_controller(
      const PolicyContext& ctx) const = 0;
};

}  // namespace hemp
