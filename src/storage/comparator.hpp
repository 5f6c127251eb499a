// Voltage comparators and the threshold-crossing timer.
//
// The paper's test PCB adds "multiple comparators with less than 0.1 uW power
// ... to serve as a simplified energy monitor to the solar cells" (Sec. VII).
// The MPP tracker (Sec. VI-A, Eq. 7) derives the incoming solar power from
// the time the solar-node voltage takes to fall between two thresholds.
#pragma once

#include <optional>
#include <vector>

#include "common/units.hpp"

namespace hemp {

enum class Edge { kRising, kFalling };

struct ComparatorEvent {
  Edge edge;
  Seconds time;
  Volts threshold;
};

/// Single comparator with symmetric hysteresis around its threshold.
class Comparator {
 public:
  Comparator(Volts threshold, Volts hysteresis = Volts(0.005));

  /// Feed one voltage sample at time `t`; returns an event when the output
  /// toggles.  Samples must arrive in non-decreasing time order.
  std::optional<ComparatorEvent> update(Volts v, Seconds t);

  [[nodiscard]] Volts threshold() const { return threshold_; }
  [[nodiscard]] bool output() const { return output_; }
  /// Reset the latch to track a fresh waveform.
  void reset(Volts v);

 private:
  Volts threshold_;
  Volts hysteresis_;
  bool output_ = false;  // true = input above threshold
  bool initialized_ = false;
  Seconds last_time_{0.0};
};

/// Ordered bank of comparators (V0 > V1 > V2 in the paper's Fig. 8 scheme).
class ComparatorBank {
 public:
  explicit ComparatorBank(std::vector<Volts> thresholds,
                          Volts hysteresis = Volts(0.005));

  /// Feed a sample to every comparator; returns all toggles this sample.
  std::vector<ComparatorEvent> update(Volts v, Seconds t);

  /// Allocation-free variant for stepped loops: clears `out` and appends
  /// this sample's toggles, reusing the caller's capacity.
  void update_into(Volts v, Seconds t, std::vector<ComparatorEvent>& out);

  [[nodiscard]] const std::vector<Volts>& thresholds() const { return thresholds_; }
  [[nodiscard]] std::size_t size() const { return comparators_.size(); }
  /// Present latched output of comparator `i` (true = input above threshold).
  [[nodiscard]] bool output(std::size_t i) const { return comparators_[i].output(); }
  void reset(Volts v);

 private:
  std::vector<Volts> thresholds_;
  std::vector<Comparator> comparators_;
};

/// Measures the time the waveform takes to fall from `v_high` to `v_low`
/// (the `t` of paper Eq. 7).  Arms on the falling edge through v_high and
/// fires on the falling edge through v_low.
class ThresholdTimer {
 public:
  ThresholdTimer(Volts v_high, Volts v_low, Volts hysteresis = Volts(0.005));

  /// Returns the measured interval when the low edge completes a measurement.
  std::optional<Seconds> update(Volts v, Seconds t);

  [[nodiscard]] Volts v_high() const { return high_.threshold(); }
  [[nodiscard]] Volts v_low() const { return low_.threshold(); }
  /// Latched outputs of the window comparators: the direction each toggles next.
  [[nodiscard]] bool high_output() const { return high_.output(); }
  [[nodiscard]] bool low_output() const { return low_.output(); }
  [[nodiscard]] bool armed() const { return armed_; }
  void reset(Volts v);

 private:
  Comparator high_;
  Comparator low_;
  bool armed_ = false;
  Seconds armed_at_{0.0};
};

}  // namespace hemp
