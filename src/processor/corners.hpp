// Process corners and temperature scaling for the 65 nm test chip.
//
// The paper evaluates one fabricated die at room temperature; a reproduction
// can ask how the holistic conclusions move across fab corners (SS/TT/FF) and
// temperature — leakage and threshold voltage shift both the conventional and
// the holistic minimum-energy points, and the speed change moves the optimal
// performance point.
#pragma once

#include <array>
#include <string>

#include "processor/processor.hpp"

namespace hemp {

enum class ProcessCorner {
  kSlowSlow,  ///< high Vth, weak drive, low leakage
  kTypical,
  kFastFast,  ///< low Vth, strong drive, high leakage
};

/// Every corner in enum order: the order of a scenario's corner weights and
/// of the batch kernel's crossover tables.
inline constexpr std::array<ProcessCorner, 3> kProcessCorners{
    ProcessCorner::kSlowSlow, ProcessCorner::kTypical, ProcessCorner::kFastFast};

std::string to_string(ProcessCorner corner);

struct OperatingConditions {
  ProcessCorner corner = ProcessCorner::kTypical;
  /// Junction temperature in degrees Celsius.
  double temperature_c = 25.0;

  void validate() const;
};

/// The Sec. VII test chip skewed to a fab corner and temperature.
///
/// Corner model (typical 65 nm spreads):
///   SS: Vth +40 mV, drive gain x0.85, leakage x0.4
///   FF: Vth -40 mV, drive gain x1.15, leakage x2.5
/// Temperature model: Vth -1 mV/K above 25 C (faster but leakier),
/// subthreshold leakage doubles every 30 K.
Processor make_test_chip_at(const OperatingConditions& conditions);

}  // namespace hemp
