#include "storage/comparator.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hemp {

Comparator::Comparator(Volts threshold, Volts hysteresis)
    : threshold_(threshold), hysteresis_(hysteresis) {
  HEMP_REQUIRE(threshold.value() > 0.0, "Comparator: threshold must be positive");
  HEMP_REQUIRE(hysteresis.value() >= 0.0, "Comparator: hysteresis must be non-negative");
}

void Comparator::reset(Volts v) {
  output_ = v > threshold_;
  initialized_ = true;
  last_time_ = Seconds(0.0);
}

std::optional<ComparatorEvent> Comparator::update(Volts v, Seconds t) {
  if (!initialized_) {
    reset(v);
    last_time_ = t;
    return std::nullopt;
  }
  HEMP_CHECK_RANGE(t >= last_time_, "Comparator: samples must be time-ordered");
  last_time_ = t;
  const double h = hysteresis_.value() * 0.5;
  if (!output_ && v.value() > threshold_.value() + h) {
    output_ = true;
    return ComparatorEvent{Edge::kRising, t, threshold_};
  }
  if (output_ && v.value() < threshold_.value() - h) {
    output_ = false;
    return ComparatorEvent{Edge::kFalling, t, threshold_};
  }
  return std::nullopt;
}

ComparatorBank::ComparatorBank(const std::vector<Volts>& thresholds,
                               Volts hysteresis) {
  HEMP_REQUIRE(!thresholds.empty(), "ComparatorBank: need >= 1 threshold");
  for (std::size_t i = 1; i < thresholds.size(); ++i) {
    HEMP_REQUIRE(thresholds[i - 1] > thresholds[i],
                 "ComparatorBank: thresholds must be strictly descending");
  }
  comparators_.reserve(thresholds.size());
  for (Volts th : thresholds) comparators_.emplace_back(th, hysteresis);
}

std::vector<ComparatorEvent> ComparatorBank::update(Volts v, Seconds t) {
  std::vector<ComparatorEvent> events;
  update_into(v, t, events);
  return events;
}

void ComparatorBank::update_into(Volts v, Seconds t,
                                 std::vector<ComparatorEvent>& out) {
  out.clear();
  for (auto& c : comparators_) {
    // hemp-analyzer: allow(hot-path-purity) — amortized: capacity reused
    if (auto e = c.update(v, t)) out.push_back(*e);
  }
}

void ComparatorBank::reset(Volts v) {
  for (auto& c : comparators_) c.reset(v);
}

ThresholdTimer::ThresholdTimer(Volts v_high, Volts v_low, Volts hysteresis)
    : high_(v_high, hysteresis), low_(v_low, hysteresis) {
  HEMP_REQUIRE(v_high > v_low, "ThresholdTimer: v_high must exceed v_low");
}

void ThresholdTimer::reset(Volts v) {
  high_.reset(v);
  low_.reset(v);
  armed_ = false;
}

std::optional<Seconds> ThresholdTimer::update(Volts v, Seconds t) {
  const auto eh = high_.update(v, t);
  const auto el = low_.update(v, t);
  if (eh && eh->edge == Edge::kFalling) {
    armed_ = true;
    armed_at_ = t;
  } else if (eh && eh->edge == Edge::kRising) {
    // Voltage recovered above v_high: abandon any pending measurement.
    armed_ = false;
  }
  if (el && el->edge == Edge::kFalling && armed_) {
    armed_ = false;
    const Seconds interval = t - armed_at_;
    // Both thresholds crossed within one sample: the fall is too fast to
    // time at this resolution; discard rather than report a zero interval.
    if (interval.value() <= 0.0) return std::nullopt;
    return interval;
  }
  return std::nullopt;
}

}  // namespace hemp
