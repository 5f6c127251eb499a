#include "sim/waveform.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/csv.hpp"
#include "common/error.hpp"

namespace hemp {

Waveform::Waveform(std::vector<std::string> channels) : channels_(std::move(channels)) {
  HEMP_REQUIRE(!channels_.empty(), "Waveform: need at least one channel");
  data_.resize(channels_.size());
}

void Waveform::sample(Seconds t, const std::vector<double>& values) {
  HEMP_REQUIRE(values.size() == channels_.size(), "Waveform: sample width mismatch");
  if (count_ > 0) {
    HEMP_CHECK_RANGE(t.value() >= times_[count_ - 1],
                     "Waveform: samples must be time-ordered");
  }
  if (count_ == times_.size()) {
    // No reserved slack: plain amortized append keeps size() == count_ for
    // callers that never touch the stepped-loop protocol.
    times_.push_back(t.value());
    for (std::size_t i = 0; i < values.size(); ++i) data_[i].push_back(values[i]);
    ++count_;
  } else {
    record(t.value(), values.data());
  }
}

void Waveform::reserve_samples(std::size_t n) {
  if (n <= times_.size()) return;
  times_.resize(n);
  for (auto& series : data_) series.resize(n);
}

HEMP_HOT void Waveform::record(double t, const double* values) {
  if (count_ == times_.size()) {
    // hemp-analyzer: allow(hot-path-purity) — amortized growth past the reserved horizon
    grow();
  }
  times_[count_] = t;
  const std::size_t nc = data_.size();
  for (std::size_t c = 0; c < nc; ++c) data_[c][count_] = values[c];
  ++count_;
}

void Waveform::finalize() {
  if (count_ == times_.size()) return;
  times_.resize(count_);
  for (auto& series : data_) series.resize(count_);
}

void Waveform::grow() {
  const std::size_t target = count_ + std::max<std::size_t>(std::size_t{64}, count_);
  times_.resize(target);
  for (auto& series : data_) series.resize(target);
}

std::size_t Waveform::channel_index(const std::string& name) const {
  const auto it = std::find(channels_.begin(), channels_.end(), name);
  HEMP_CHECK_RANGE(it != channels_.end(), "Waveform: unknown channel " + name);
  return static_cast<std::size_t>(it - channels_.begin());
}

const std::vector<double>& Waveform::series(const std::string& name) const {
  return data_[channel_index(name)];
}

double Waveform::value_at(const std::string& name, Seconds t) const {
  const auto& ys = series(name);
  HEMP_CHECK_RANGE(!ys.empty(), "Waveform: empty record");
  const double tv = t.value();
  if (tv <= times_.front()) return ys.front();
  if (tv >= times_.back()) return ys.back();
  const auto it = std::upper_bound(times_.begin(), times_.end(), tv);
  const std::size_t i = static_cast<std::size_t>(it - times_.begin());
  const double frac = (tv - times_[i - 1]) / (times_[i] - times_[i - 1]);
  return ys[i - 1] + frac * (ys[i] - ys[i - 1]);
}

double Waveform::first_crossing(const std::string& name, double level,
                                bool falling) const {
  const auto& ys = series(name);
  for (std::size_t i = 1; i < ys.size(); ++i) {
    const bool crossed = falling ? (ys[i - 1] > level && ys[i] <= level)
                                 : (ys[i - 1] < level && ys[i] >= level);
    if (crossed) {
      const double frac = (level - ys[i - 1]) / (ys[i] - ys[i - 1]);
      return times_[i - 1] + frac * (times_[i] - times_[i - 1]);
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

double Waveform::minimum(const std::string& name) const {
  const auto& ys = series(name);
  HEMP_CHECK_RANGE(!ys.empty(), "Waveform: empty record");
  return *std::min_element(ys.begin(), ys.end());
}

double Waveform::maximum(const std::string& name) const {
  const auto& ys = series(name);
  HEMP_CHECK_RANGE(!ys.empty(), "Waveform: empty record");
  return *std::max_element(ys.begin(), ys.end());
}

double Waveform::integral(const std::string& name) const {
  const auto& ys = series(name);
  HEMP_CHECK_RANGE(ys.size() >= 2, "Waveform: need >= 2 samples to integrate");
  double sum = 0.0;
  for (std::size_t i = 1; i < ys.size(); ++i) {
    sum += 0.5 * (ys[i] + ys[i - 1]) * (times_[i] - times_[i - 1]);
  }
  return sum;
}

double Waveform::integral(const std::string& name, Seconds t0, Seconds t1) const {
  const auto& ys = series(name);
  HEMP_CHECK_RANGE(ys.size() >= 2, "Waveform: need >= 2 samples to integrate");
  HEMP_CHECK_RANGE(t0 <= t1, "Waveform: inverted integration window");
  const double a = std::max(t0.value(), times_.front());
  const double b = std::min(t1.value(), times_.back());
  if (a >= b) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 1; i < ys.size(); ++i) {
    const double lo = std::max(times_[i - 1], a);
    const double hi = std::min(times_[i], b);
    if (lo >= hi) continue;
    const double y_lo = value_at(name, Seconds(lo));
    const double y_hi = value_at(name, Seconds(hi));
    sum += 0.5 * (y_lo + y_hi) * (hi - lo);
  }
  return sum;
}

double Waveform::mean(const std::string& name) const {
  const double span = times_.back() - times_.front();
  HEMP_CHECK_RANGE(span > 0.0, "Waveform: zero-length record");
  return integral(name) / span;
}

void Waveform::write_csv(const std::string& path) const {
  std::vector<std::string> cols;
  cols.reserve(channels_.size() + 1);
  cols.push_back("time_s");
  for (const auto& c : channels_) cols.push_back(c);
  CsvWriter out(path, cols);
  std::vector<double> row(cols.size());
  for (std::size_t i = 0; i < times_.size(); ++i) {
    row[0] = times_[i];
    for (std::size_t c = 0; c < channels_.size(); ++c) row[c + 1] = data_[c][i];
    out.row(row);
  }
  out.close();
}

}  // namespace hemp
