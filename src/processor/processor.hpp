// Microprocessor facade: speed + power models plus operating-point helpers.
//
// Represents the paper's test vehicle, the 65 nm pattern-recognition image
// processor (Sec. VII), as the load the holistic optimizer schedules.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "processor/power_model.hpp"
#include "processor/speed_model.hpp"

namespace hemp {

/// One (Vdd, f) pair; f may be below the max frequency at Vdd (throttled).
struct OperatingPoint {
  Volts vdd;
  Hertz frequency;
};

class Processor {
 public:
  Processor(SpeedModel speed, PowerModel power, std::string name = "uProcessor");

  [[nodiscard]] const SpeedModel& speed() const { return speed_; }
  [[nodiscard]] const PowerModel& power_model() const { return power_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  [[nodiscard]] Hertz max_frequency(Volts vdd) const { return speed_.max_frequency(vdd); }
  [[nodiscard]] Volts min_voltage() const { return speed_.min_voltage(); }
  [[nodiscard]] Volts max_voltage() const { return speed_.max_voltage(); }

  /// Power drawn at an operating point; f must not exceed max_frequency(vdd).
  [[nodiscard]] Watts power(const OperatingPoint& op) const;
  /// Power at `vdd` running at maximum frequency (the Fig. 6a load line).
  [[nodiscard]] Watts max_power(Volts vdd) const;
  /// Load current drawn from the rail at an operating point.
  [[nodiscard]] Amps current(const OperatingPoint& op) const;

  /// Energy per cycle at `vdd` clocked at the max frequency (Fig. 7b x-axis).
  [[nodiscard]] Joules energy_per_cycle(Volts vdd) const;
  /// Energy per cycle at an arbitrary (possibly throttled) point.
  [[nodiscard]] Joules energy_per_cycle(const OperatingPoint& op) const;

  /// Validate that `op` is electrically reachable; throws RangeError.
  void check(const OperatingPoint& op) const;

  /// Time and energy to retire `cycles` at an operating point.
  [[nodiscard]] Seconds time_for_cycles(double cycles, const OperatingPoint& op) const;
  [[nodiscard]] Joules energy_for_cycles(double cycles, const OperatingPoint& op) const;

  /// The paper's 65 nm image-processor test chip.
  static Processor make_test_chip();

 private:
  SpeedModel speed_;
  PowerModel power_;
  std::string name_;
};

/// Discrete DVFS ladder: the fully integrated system tunes (Vdd, f) in steps
/// driven by the clock generator + regulator reference (paper Sec. VI-A).
class DvfsLadder {
 public:
  /// `steps` evenly spaced voltage levels over [lo, hi], each paired with
  /// `f_max(v)`: the one ladder builder.  Throws on an empty range.
  template <class FMax>
  [[nodiscard]] static DvfsLadder spanning(Volts lo, Volts hi, int steps, FMax&& f_max) {
    HEMP_REQUIRE(hi > lo, "DvfsLadder: empty DVFS range");
    std::vector<OperatingPoint> levels;
    levels.reserve(static_cast<std::size_t>(steps));
    for (int i = 0; i < steps; ++i) {
      const Volts v(lo.value() + (hi.value() - lo.value()) * i / (steps - 1));
      levels.push_back({v, f_max(v)});
    }
    return DvfsLadder(std::move(levels));
  }

  /// Explicit levels (must be sorted by voltage ascending).
  explicit DvfsLadder(std::vector<OperatingPoint> levels);

  [[nodiscard]] const std::vector<OperatingPoint>& levels() const { return levels_; }
  [[nodiscard]] std::size_t size() const { return levels_.size(); }
  [[nodiscard]] const OperatingPoint& at(std::size_t i) const;

 private:
  std::vector<OperatingPoint> levels_;
};

}  // namespace hemp
