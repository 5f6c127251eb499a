#include "processor/processor.hpp"

#include <utility>

#include "common/error.hpp"

namespace hemp {

Processor::Processor(SpeedModel speed, PowerModel power, std::string name)
    : speed_(std::move(speed)), power_(std::move(power)), name_(std::move(name)) {}

void Processor::check(const OperatingPoint& op) const {
  HEMP_CHECK_RANGE(op.vdd >= speed_.min_voltage() && op.vdd <= speed_.max_voltage(),
                   "Processor: supply outside operating envelope");
  HEMP_CHECK_RANGE(op.frequency.value() >= 0.0, "Processor: negative frequency");
  // Allow a hair of slack for round-tripping through voltage_for_frequency.
  HEMP_CHECK_RANGE(op.frequency.value() <= speed_.max_frequency(op.vdd).value() * (1.0 + 1e-9),
                   "Processor: frequency above what the supply sustains");
}

Watts Processor::power(const OperatingPoint& op) const {
  check(op);
  return power_.total_power(op.vdd, op.frequency);
}

Watts Processor::max_power(Volts vdd) const {
  return power_.total_power(vdd, speed_.max_frequency(vdd));
}

Amps Processor::current(const OperatingPoint& op) const { return power(op) / op.vdd; }

Joules Processor::energy_per_cycle(Volts vdd) const {
  return power_.energy_per_cycle(vdd, speed_.max_frequency(vdd));
}

Joules Processor::energy_per_cycle(const OperatingPoint& op) const {
  check(op);
  HEMP_CHECK_RANGE(op.frequency.value() > 0.0,
                   "Processor: energy per cycle needs a running clock");
  return power_.energy_per_cycle(op.vdd, op.frequency);
}

Seconds Processor::time_for_cycles(double cycles, const OperatingPoint& op) const {
  check(op);
  HEMP_CHECK_RANGE(cycles >= 0.0, "Processor: negative cycle count");
  HEMP_CHECK_RANGE(op.frequency.value() > 0.0, "Processor: zero clock");
  return Seconds(cycles / op.frequency.value());
}

Joules Processor::energy_for_cycles(double cycles, const OperatingPoint& op) const {
  return Joules(energy_per_cycle(op).value() * cycles);
}

Processor Processor::make_test_chip() {
  return Processor(SpeedModel(), PowerModel(), "65nm-image-processor");
}

DvfsLadder::DvfsLadder(std::vector<OperatingPoint> levels) : levels_(std::move(levels)) {
  HEMP_REQUIRE(levels_.size() >= 2, "DvfsLadder: need >= 2 levels");
  for (std::size_t i = 1; i < levels_.size(); ++i) {
    HEMP_REQUIRE(levels_[i - 1].vdd < levels_[i].vdd,
                 "DvfsLadder: levels must be sorted by voltage");
  }
}

const OperatingPoint& DvfsLadder::at(std::size_t i) const {
  HEMP_CHECK_RANGE(i < levels_.size(), "DvfsLadder: index out of range");
  return levels_[i];
}

}  // namespace hemp
