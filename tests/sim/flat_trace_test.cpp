#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "harvester/light_environment.hpp"
#include "sim/flat_model.hpp"
#include "trace/generators.hpp"

namespace hemp {
namespace {

constexpr double kDay = 0.25;

/// Exact L1 distance between two piecewise-linear traces over [0, kDay]:
/// the difference is linear between union knots, so each segment integrates
/// in closed form (splitting at the zero crossing when the sign flips).
double l1_gap(const flat::FlatTrace& a, const flat::FlatTrace& b) {
  std::vector<double> ts;
  ts.reserve(a.ts.size() + b.ts.size());
  ts.insert(ts.end(), a.ts.begin(), a.ts.end());
  ts.insert(ts.end(), b.ts.begin(), b.ts.end());
  std::sort(ts.begin(), ts.end());
  ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
  std::size_t ca = 0, cb = 0;
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    const double t0 = ts[i];
    const double t1 = ts[i + 1];
    const double d0 = a.at(t0, ca) - b.at(t0, cb);
    const double d1 = a.at(t1, ca) - b.at(t1, cb);
    const double w = t1 - t0;
    if (d0 * d1 >= 0.0) {
      total += 0.5 * std::fabs(d0 + d1) * w;
    } else {
      const double r = d0 / (d0 - d1);  // zero crossing fraction
      total += 0.5 * w * (std::fabs(d0) * r + std::fabs(d1) * (1.0 - r));
    }
  }
  return total;
}

/// The three stochastic fleet generators, each seeded explicitly so every
/// (generator, seed) pair is an independent property-test case.
std::vector<flat::FlatTrace> generator_cases() {
  std::vector<flat::FlatTrace> cases;
  for (const std::uint64_t seed : {1u, 17u, 2018u}) {
    {
      Rng rng(seed);
      cases.push_back(
          flat::flatten_trace(diurnal_arc(rng, DiurnalArcParams{}), kDay));
    }
    {
      Rng rng(seed);
      cases.push_back(
          flat::flatten_trace(cloud_field(rng, CloudFieldParams{}), kDay));
    }
    {
      Rng rng(seed);
      cases.push_back(
          flat::flatten_trace(indoor_duty(rng, IndoorDutyParams{}), kDay));
    }
  }
  return cases;
}

/// The lazy-invalidation priority-queue coarsen that the indexed heap in
/// FlatTrace::coarsen replaced, kept verbatim as the bit-identity oracle.
void lazy_heap_coarsen(flat::FlatTrace& tr, double eps) {
  std::vector<double>& ts = tr.ts;
  std::vector<double>& gs = tr.gs;
  if (tr.constant || eps <= 0.0 || ts.size() <= 2) return;
  const std::size_t n = ts.size();
  std::vector<std::size_t> prev(n), next(n);
  std::vector<double> area(n, std::numeric_limits<double>::infinity());
  std::vector<bool> alive(n, true);
  const auto tri = [&](std::size_t p, std::size_t i, std::size_t q) {
    return 0.5 * std::fabs((ts[q] - ts[p]) * (gs[i] - gs[p]) -
                           (ts[i] - ts[p]) * (gs[q] - gs[p]));
  };
  for (std::size_t i = 0; i < n; ++i) {
    prev[i] = i == 0 ? n : i - 1;
    next[i] = i + 1 == n ? n : i + 1;
    if (i > 0 && i + 1 < n) area[i] = tri(i - 1, i, i + 1);
  }
  using Entry = std::pair<double, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t i = 1; i + 1 < n; ++i) heap.emplace(area[i], i);
  double spent = 0.0;
  std::size_t removed = 0;
  while (!heap.empty()) {
    const auto [a, i] = heap.top();
    heap.pop();
    if (!alive[i] || a != area[i]) continue;  // stale entry
    if (spent + a > eps) break;               // budget exhausted
    spent += a;
    ++removed;
    alive[i] = false;
    const std::size_t p = prev[i];
    const std::size_t q = next[i];
    next[p] = q;
    prev[q] = p;
    if (prev[p] != n) {
      area[p] = tri(prev[p], p, q);
      heap.emplace(area[p], p);
    }
    if (next[q] != n) {
      area[q] = tri(p, q, next[q]);
      heap.emplace(area[q], q);
    }
  }
  if (removed == 0) return;
  std::vector<double> ts2, gs2;
  ts2.reserve(n - removed);
  gs2.reserve(n - removed);
  for (std::size_t i = 0; i < n; ++i) {
    if (alive[i]) {
      ts2.push_back(ts[i]);
      gs2.push_back(gs[i]);
    }
  }
  ts = std::move(ts2);
  gs = std::move(gs2);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(FlattenTrace, MergesNearDuplicateKnots) {
  // Uniform grid pitch is kDay/256 ~ 1 ms; place cloud edges exactly on and
  // within a nanosecond of uniform knots so the flattener must merge the
  // collisions instead of emitting near-duplicate knots the event stepper
  // would pay a whole step for.
  const double pitch = kDay / 256.0;
  const IrradianceTrace trace = IrradianceTrace::clouds(
      0.9, {{Seconds(10 * pitch), Seconds(3 * pitch), 0.6},
            {Seconds(40 * pitch + 0.4e-9), Seconds(5 * pitch), 0.8},
            {Seconds(0.1), Seconds(0.01), 0.5}});
  const flat::FlatTrace flat = flat::flatten_trace(trace, kDay);
  ASSERT_GE(flat.ts.size(), 2u);
  for (std::size_t i = 0; i + 1 < flat.ts.size(); ++i) {
    EXPECT_GE(flat.ts[i + 1] - flat.ts[i], 0.25e-9)
        << "near-duplicate knots at index " << i << ": " << flat.ts[i]
        << " and " << flat.ts[i + 1];
  }
  // The ±1 ns triples still capture each cloud edge as a step: one sample
  // on each side of the breakpoint within nanoseconds.
  std::size_t cur = 0;
  EXPECT_NEAR(flat.at(10 * pitch - 2e-9, cur), 0.9, 1e-6);
  EXPECT_NEAR(flat.at(10 * pitch + 2e-9, cur), 0.9 * (1.0 - 0.6), 1e-6);
}

TEST(FlattenTrace, StepSurvivesLinearization) {
  const IrradianceTrace trace = IrradianceTrace::step(1.0, 0.2, Seconds(0.1));
  const flat::FlatTrace flat = flat::flatten_trace(trace, kDay);
  std::size_t cur = 0;
  EXPECT_NEAR(flat.at(0.1 - 5e-9, cur), 1.0, 1e-6);
  EXPECT_NEAR(flat.at(0.1 + 5e-9, cur), 0.2, 1e-6);
}

TEST(CoarsenTrace, AbsorbedEnergyErrorBoundedByEps) {
  // Property: for every generator x seed and every budget, the L1 distance
  // between the original and coarsened polylines — an upper bound on the
  // absorbed-irradiance error — stays within eps (sum of removed triangle
  // areas bounds the L1 perturbation).
  for (const flat::FlatTrace& original : generator_cases()) {
    for (const double eps : {1e-6, 1e-5, 1e-4, 2.5e-4, 1e-3, 1e-2}) {
      flat::FlatTrace coarse = original;
      coarse.coarsen(eps);
      EXPECT_LE(l1_gap(original, coarse), eps * (1.0 + 1e-9) + 1e-15)
          << "eps=" << eps << " knots " << original.ts.size() << " -> "
          << coarse.ts.size();
      // Endpoints always survive.
      ASSERT_GE(coarse.ts.size(), 2u);
      EXPECT_EQ(coarse.ts.front(), original.ts.front());
      EXPECT_EQ(coarse.ts.back(), original.ts.back());
    }
  }
}

TEST(CoarsenTrace, KnotCountMonotoneNonIncreasingInEps) {
  // The greedy removal order is data-determined and independent of eps, so a
  // larger budget removes a superset of knots: surviving counts must be
  // monotone non-increasing along any increasing eps ladder.
  for (const flat::FlatTrace& original : generator_cases()) {
    std::size_t last = original.ts.size() + 1;
    for (const double eps : {0.0, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}) {
      flat::FlatTrace coarse = original;
      coarse.coarsen(eps);
      EXPECT_LE(coarse.ts.size(), last) << "eps=" << eps;
      last = coarse.ts.size();
    }
    // eps = 0 must be an exact no-op.
    flat::FlatTrace untouched = original;
    untouched.coarsen(0.0);
    EXPECT_EQ(untouched.ts, original.ts);
    EXPECT_EQ(untouched.gs, original.gs);
  }
}

TEST(CoarsenTrace, LargerBudgetsRemovePrefixOfSameSequence) {
  // Monotonicity is set-wise, not just count-wise: every knot surviving a
  // large budget also survives every smaller budget.
  Rng rng(7);
  const flat::FlatTrace original =
      flat::flatten_trace(cloud_field(rng, CloudFieldParams{}), kDay);
  flat::FlatTrace small = original;
  small.coarsen(1e-5);
  flat::FlatTrace big = original;
  big.coarsen(1e-3);
  std::size_t j = 0;
  for (const double t : big.ts) {
    while (j < small.ts.size() && small.ts[j] < t) ++j;
    ASSERT_LT(j, small.ts.size());
    EXPECT_EQ(small.ts[j], t);
  }
}

TEST(CoarsenTrace, IndexedHeapBitIdenticalToLazyHeap) {
  // The indexed heap must remove exactly the knots the lazy heap removed, in
  // the same order, ties included: indoor traces' flat segments give runs of
  // exact zero-area knots, so the index tie-break decides which survive.
  std::size_t coarsened = 0;
  for (const double day : {0.25, 1.0}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      std::vector<flat::FlatTrace> traces;
      {
        Rng rng(seed);
        DiurnalArcParams p;
        p.day_length = Seconds(day);
        traces.push_back(flat::flatten_trace(diurnal_arc(rng, p), day));
      }
      {
        Rng rng(seed);
        CloudFieldParams p;
        p.day.day_length = Seconds(day);
        traces.push_back(flat::flatten_trace(cloud_field(rng, p), day));
      }
      {
        Rng rng(seed);
        IndoorDutyParams p;
        p.duration = Seconds(day);
        traces.push_back(flat::flatten_trace(indoor_duty(rng, p), day));
      }
      for (const flat::FlatTrace& original : traces) {
        for (const double eps : {0.0, 1e-6, 1e-4, 1e-3, 1e-2, 1.0}) {
          flat::FlatTrace expect = original;
          lazy_heap_coarsen(expect, eps);
          flat::FlatTrace got = original;
          got.coarsen(eps);
          EXPECT_TRUE(same_bits(got.ts, expect.ts))
              << "day=" << day << " seed=" << seed << " eps=" << eps;
          EXPECT_TRUE(same_bits(got.gs, expect.gs))
              << "day=" << day << " seed=" << seed << " eps=" << eps;
          if (got.ts.size() < original.ts.size()) {
            ++coarsened;
            // Survivors live in right-sized storage, not the original's.
            EXPECT_LE(got.ts.capacity(), got.ts.size());
            EXPECT_LE(got.gs.capacity(), got.gs.size());
          }
        }
      }
    }
  }
  EXPECT_GT(coarsened, 0u);
}

}  // namespace
}  // namespace hemp
