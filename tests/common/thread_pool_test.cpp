#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace hemp {
namespace {

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SharedPoolIsASingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for(pool, kN, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ZeroAndOneItemEdgeCases) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL() << "body called for n=0"; });
  int calls = 0;
  parallel_for(pool, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, ResultsMatchSerialLoop) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 257;
  std::vector<double> parallel(kN), serial(kN);
  auto f = [](std::size_t i) {
    double acc = static_cast<double>(i);
    for (int k = 0; k < 100; ++k) acc = acc * 1.0000001 + 0.5;
    return acc;
  };
  for (std::size_t i = 0; i < kN; ++i) serial[i] = f(i);
  parallel_for(pool, kN, [&](std::size_t i) { parallel[i] = f(i); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "index " << i;  // bit-identical
  }
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 64,
                   [](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, PoolIsReusableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 8,
                            [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> done{0};
  parallel_for(pool, 8, [&](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 8);
}

TEST(ParallelFor, ZeroWorkerPoolStillCompletes) {
  // The caller participates, so even an empty pool makes progress.
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  parallel_for(pool, 100, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ParallelFor, NestedCallFromWorkerCompletes) {
  // Outer bodies that themselves parallel_for on the same pool: with every
  // worker inside an outer body, inner helpers queued on the pool would never
  // run.  Inner loops on a worker run inline, so this finishes.
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 64;
  std::vector<std::atomic<int>> visits(kOuter * kInner);
  for (int round = 0; round < 20; ++round) {
    parallel_for(pool, kOuter, [&](std::size_t o) {
      parallel_for(pool, kInner, [&](std::size_t i) {
        visits[o * kInner + i].fetch_add(1);
      });
    });
  }
  for (std::size_t k = 0; k < visits.size(); ++k) {
    EXPECT_EQ(visits[k].load(), 20) << "index " << k;
  }
  EXPECT_FALSE(pool.is_worker_thread());
}

TEST(ParallelFor, StressManySmallRuns) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    parallel_for(pool, 20, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 20) << "round " << round;
  }
}

}  // namespace
}  // namespace hemp
