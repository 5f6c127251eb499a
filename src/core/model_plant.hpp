// The exact plant: every ControlPlant answer solved over a SystemModel (see
// core/control_plant.hpp).  The dense reference loop and the single-node
// fast path run their controllers on it.
#pragma once

#include "core/control_plant.hpp"
#include "core/mpp_tracker.hpp"
#include "core/regulator_selector.hpp"
#include "core/system_model.hpp"

namespace hemp {

class ModelPlant final : public ControlPlant {
 public:
  /// Non-owning view over `model`, which must outlive the plant.  Eq. 7's
  /// table samples the cell at `tracker`'s measurement voltage.
  ModelPlant(const SystemModel& model, const MppTrackerParams& tracker)
      : model_(&model), reg_(&model.regulator()), proc_(&model.processor()),
        lut_(model.cell(), tracker.measure_voltage()) {}

  bool supports(Volts vin, Volts vout) const override {
    return reg_->supports(vin, vout);
  }
  double efficiency(Volts vin, Volts vout, Watts pout) const override {
    return reg_->efficiency(vin, vout, pout);
  }
  Volts min_voltage() const override { return proc_->min_voltage(); }
  Volts max_voltage() const override { return proc_->max_voltage(); }
  Hertz max_frequency(Volts vdd) const override { return proc_->max_frequency(vdd); }
  Watts max_power(Volts vdd) const override { return proc_->max_power(vdd); }
  Volts mpp_voltage_for(Watts p_in) override { return lut_.mpp_voltage_for(p_in); }
  Watts mpp_power_for(Watts p_in) override { return lut_.mpp_power_for(p_in); }
  MaxPowerPoint full_sun_mpp() const override { return model_->mpp(1.0); }
  /// The MPP power at RegulatorSelector's crossover irradiance: a bisection
  /// over exact solves, so callers read it once.
  Watts crossover_power() const override {
    const auto g_cross = RegulatorSelector(*model_).crossover_irradiance();
    return g_cross ? model_->mpp(*g_cross).power : Watts(0.0);
  }
  MepPoint holistic_mep(double g) const override {
    return MepOptimizer(*model_).holistic(g);
  }
  SprintPlan sprint_plan(double cycles, Seconds deadline,
                         double sprint_factor) const override {
    return SprintScheduler::plan(*proc_, cycles, deadline, sprint_factor);
  }

 private:
  const SystemModel* model_;
  const Regulator* reg_;
  const Processor* proc_;
  MppLut lut_;
};

}  // namespace hemp
