// hemp_analyzer fixture: real violations silenced by inline allow markers.
// The selftest asserts NONE of these are reported.
#include <random>
#include <vector>

#define HEMP_HOT

namespace fixture {

HEMP_HOT int hot_suppressed_alloc() {
  int* p = new int(1);  // hemp-analyzer: allow(hot-path-purity) — fixture
  int v = *p;
  delete p;
  return v;
}

HEMP_HOT void hot_suppressed_all(std::vector<int>& sink) {
  sink.push_back(1);  // hemp-analyzer: allow(all) — fixture
}

unsigned seeded_draw(unsigned seed) {
  std::mt19937 gen{seed};  // hemp-analyzer: allow(determinism) — fixture
  return static_cast<unsigned>(gen());
}

// Standalone marker: applies to the NEXT line (NOLINTNEXTLINE style).
// hemp-analyzer: allow(unit-boundary) — fixture: next-line marker
double scale_power(double power_w) {
  return power_w * 2.0;
}

}  // namespace fixture
