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

/// The on-board comparators' hysteresis band (symmetric about the threshold).
inline constexpr Volts kComparatorHysteresis{0.005};

struct ComparatorEvent {
  Edge edge;
  Seconds time;
  Volts threshold;
};

/// Single comparator with symmetric hysteresis around its threshold.
class Comparator {
 public:
  Comparator(Volts threshold, Volts hysteresis = kComparatorHysteresis);

  /// Feed one voltage sample at time `t`; returns an event when the output
  /// toggles.  Samples must arrive in non-decreasing time order.
  std::optional<ComparatorEvent> update(Volts v, Seconds t);

  [[nodiscard]] bool output() const { return output_; }
  /// The input level at which the output toggles next: the threshold less
  /// half the hysteresis while the output is high, plus it while low.
  [[nodiscard]] Volts next_toggle() const {
    const double h = hysteresis_.value() * 0.5;
    return Volts(output_ ? threshold_.value() - h : threshold_.value() + h);
  }
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
  explicit ComparatorBank(const std::vector<Volts>& thresholds,
                          Volts hysteresis = kComparatorHysteresis);

  /// Feed a sample to every comparator; returns all toggles this sample.
  std::vector<ComparatorEvent> update(Volts v, Seconds t);

  /// Allocation-free variant for stepped loops: clears `out` and appends
  /// this sample's toggles, reusing the caller's capacity.
  void update_into(Volts v, Seconds t, std::vector<ComparatorEvent>& out);

  [[nodiscard]] std::size_t size() const { return comparators_.size(); }
  /// Comparator `i`'s next toggle level (Comparator::next_toggle).
  [[nodiscard]] Volts next_toggle(std::size_t i) const {
    return comparators_[i].next_toggle();
  }
  void reset(Volts v);

 private:
  std::vector<Comparator> comparators_;
};

/// Measures the time the waveform takes to fall from `v_high` to `v_low`
/// (the `t` of paper Eq. 7).  Arms on the falling edge through v_high and
/// fires on the falling edge through v_low.
class ThresholdTimer {
 public:
  ThresholdTimer(Volts v_high, Volts v_low,
                 Volts hysteresis = kComparatorHysteresis);

  /// Returns the measured interval when the low edge completes a measurement.
  std::optional<Seconds> update(Volts v, Seconds t);

  /// Next toggle levels of the window comparators (Comparator::next_toggle).
  [[nodiscard]] Volts high_next_toggle() const { return high_.next_toggle(); }
  [[nodiscard]] Volts low_next_toggle() const { return low_.next_toggle(); }
  [[nodiscard]] bool armed() const { return armed_; }
  void reset(Volts v);

 private:
  Comparator high_;
  Comparator low_;
  bool armed_ = false;
  Seconds armed_at_{0.0};
};

}  // namespace hemp
