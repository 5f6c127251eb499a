#include "core/system_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/numeric.hpp"

namespace hemp {

SystemModel::SystemModel(const PvCell& cell, const Regulator& regulator,
                         const Processor& processor)
    : cell_(&cell), regulator_(&regulator), processor_(&processor) {}

MaxPowerPoint SystemModel::mpp(double g) const {
  // Quantize the key and solve at the quantized irradiance: the cached point
  // is then a pure function of the key, so concurrent sweeps get identical
  // results no matter which thread populated the entry first.
  const auto key = static_cast<std::int64_t>(std::llround(g / kMppCacheQuantum));
  const double g_q = static_cast<double>(key) * kMppCacheQuantum;
  {
    const std::lock_guard<std::mutex> lock(mpp_mutex_);
    const auto it = mpp_cache_.find(key);
    if (it != mpp_cache_.end()) return it->second;
  }
  const MaxPowerPoint point = find_mpp(*cell_, g_q);
  {
    const std::lock_guard<std::mutex> lock(mpp_mutex_);
    if (mpp_cache_.size() >= kMppCacheCapacity) mpp_cache_.clear();
    mpp_cache_.emplace(key, point);
  }
  return point;
}

Watts SystemModel::delivered_power(Volts vdd, double g) const {
  return delivered_power(vdd, mpp(g));
}

Watts SystemModel::delivered_power(Volts vdd, const MaxPowerPoint& point) const {
  if (point.power.value() <= 0.0) return Watts(0.0);
  if (!regulator_->supports(point.voltage, vdd)) return Watts(0.0);

  // Self-consistent load: pout = eta(pout) * p_mpp.  eta rises with load for
  // these converters (fixed losses amortize), so iterate to the fixed point,
  // starting from the rated-load efficiency and capping at the rating.
  const double p_mpp = point.power.value();
  double pout = std::min(p_mpp, regulator_->rated_load().value());
  for (int i = 0; i < 64; ++i) {
    const double eta =
        regulator_->efficiency(point.voltage, vdd, Watts(std::max(pout, 1e-9)));
    const double next = std::min(eta * p_mpp, regulator_->rated_load().value());
    if (std::fabs(next - pout) < 1e-12) return Watts(next);
    pout = next;
  }
  return Watts(pout);
}

Watts SystemModel::unregulated_power(Volts vdd, double g) const {
  return cell_->power(vdd, g);
}

double SystemModel::efficiency_at(Volts vdd, double g) const {
  const MaxPowerPoint point = mpp(g);
  const Watts pout = delivered_power(vdd, g);
  if (pout.value() <= 0.0) return 0.0;
  return regulator_->efficiency(point.voltage, vdd, pout);
}

}  // namespace hemp
