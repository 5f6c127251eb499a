#include "common/numeric.hpp"

#include <algorithm>
#include <cmath>

namespace hemp::numeric {

double clamp(double x, double lo, double hi) {
  if (lo > hi) std::swap(lo, hi);
  return std::min(std::max(x, lo), hi);
}

bool approx_equal(double a, double b, double tol) {
  return std::fabs(a - b) <= tol * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace hemp::numeric
