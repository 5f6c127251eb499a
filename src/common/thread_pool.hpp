// Fixed-size worker pool for the parallel sweep engine (sim/sweep.hpp).
//
// Deliberately simple — no work stealing, no task priorities: a mutex-guarded
// queue feeding N std::threads.  Sweep workloads are coarse (one optimizer
// solve or transient sim per item), so queue contention is negligible and the
// simple design is easy to keep clean under ThreadSanitizer.
//
// Determinism contract: parallel_for(n, body) calls body(i) exactly once for
// every i in [0, n); bodies must write only to their own per-index slot.
// Under that contract a parallel run is bit-identical to the serial loop
// `for (i = 0; i < n; ++i) body(i)` regardless of scheduling.
//
// Nested calls: a parallel_for issued from inside one of the same pool's
// workers runs its loop inline on that worker.  Queuing helpers there could
// deadlock — every worker may be blocked in an outer body waiting for helpers
// no free worker is left to run — and the outer loop already keeps the pool
// busy.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace hemp {

class ThreadPool {
 public:
  /// `threads == 0` sizes the pool to the hardware concurrency (min 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue a fire-and-forget task.  Tasks must not throw (parallel_for
  /// wraps user bodies and captures their exceptions itself).
  void submit(std::function<void()> task);

  /// Process-wide pool, created on first use with the default size.
  static ThreadPool& shared();

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool is_worker_thread() const;

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::queue<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Run body(i) for every i in [0, n) using `pool`'s workers plus the calling
/// thread.  Blocks until all indices are done.  The first exception thrown by
/// any body is rethrown on the caller after completion; remaining indices are
/// skipped on a best-effort basis once a body has thrown.  Called from one of
/// `pool`'s own workers, it runs the plain serial loop on that worker.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// parallel_for on the shared pool.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

}  // namespace hemp
