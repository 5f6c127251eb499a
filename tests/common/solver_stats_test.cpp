#include "common/solver_stats.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "harvester/iv_curve.hpp"
#include "harvester/pv_cell.hpp"

namespace hemp {
namespace {

TEST(SolverStats, CountersIncrementIndependently) {
  const auto before = solver_stats::snapshot();
  solver_stats::count_exact_mpp_solve();
  const auto mid = solver_stats::delta_since(before);
  EXPECT_EQ(mid.mpp_solves, 1u);
  EXPECT_EQ(mid.regulated_solves, 0u);

  solver_stats::count_exact_regulated_solve();
  solver_stats::count_exact_regulated_solve();
  const auto after = solver_stats::delta_since(before);
  EXPECT_EQ(after.mpp_solves, 1u);
  EXPECT_EQ(after.regulated_solves, 2u);
  EXPECT_EQ(after.total(), 3u);
}

TEST(SolverStats, DeltaIgnoresSolvesBeforeTheBracket) {
  // Counters are process-wide and monotone; only the bracketed window counts.
  solver_stats::count_exact_mpp_solve();
  solver_stats::count_exact_regulated_solve();
  const auto before = solver_stats::snapshot();
  const auto delta = solver_stats::delta_since(before);
  EXPECT_EQ(delta.mpp_solves, 0u);
  EXPECT_EQ(delta.regulated_solves, 0u);
  EXPECT_EQ(delta.total(), 0u);
}

TEST(SolverStats, SnapshotTotalSumsBothCounters) {
  solver_stats::Snapshot s;
  EXPECT_EQ(s.total(), 0u);
  s.mpp_solves = 7;
  s.regulated_solves = 5;
  EXPECT_EQ(s.total(), 12u);
}

TEST(SolverStats, ExactMppSolveIsCounted) {
  const PvCell cell = make_ixys_kxob22_cell();
  const auto before = solver_stats::snapshot();
  const MaxPowerPoint mpp = find_mpp(cell, 1.0);
  EXPECT_GT(mpp.power.value(), 0.0);
  EXPECT_EQ(solver_stats::delta_since(before).mpp_solves, 1u);
}

TEST(SolverStats, DarkMppShortCircuitIsNotCounted) {
  // find_mpp returns the trivial zero point without searching at g <= 0.
  const PvCell cell = make_ixys_kxob22_cell();
  const auto before = solver_stats::snapshot();
  const MaxPowerPoint mpp = find_mpp(cell, 0.0);
  EXPECT_EQ(mpp.power.value(), 0.0);
  EXPECT_EQ(solver_stats::delta_since(before).total(), 0u);
}

// The zero-exact-solve guard the fleet checks use: bracket the work with a
// snapshot and HEMP_REQUIRE a zero delta.
void require_no_exact_solves(const solver_stats::Snapshot& before) {
  const auto delta = solver_stats::delta_since(before);
  HEMP_REQUIRE(delta.total() == 0, "exact solver invoked during bracketed run");
}

TEST(SolverStats, NoExactSolvesGuardPassesWhenClean) {
  const auto before = solver_stats::snapshot();
  EXPECT_NO_THROW(require_no_exact_solves(before));
}

TEST(SolverStats, NoExactSolvesGuardThrowsOnAnySolve) {
  const auto before = solver_stats::snapshot();
  solver_stats::count_exact_mpp_solve();
  EXPECT_THROW(require_no_exact_solves(before), ModelError);

  const auto before2 = solver_stats::snapshot();
  solver_stats::count_exact_regulated_solve();
  EXPECT_THROW(require_no_exact_solves(before2), ModelError);
}

}  // namespace
}  // namespace hemp
