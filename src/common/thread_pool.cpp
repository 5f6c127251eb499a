#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace hemp {

namespace {

// The pool whose worker_loop the current thread runs (nullptr elsewhere).
thread_local const ThreadPool* tls_worker_of = nullptr;

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
  }
  wake_.notify_one();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::is_worker_thread() const { return tls_worker_of == this; }

void ThreadPool::worker_loop() {
  tls_worker_of = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

namespace {

// Shared state of one parallel_for call.  Workers and the caller all drain
// the same atomic index counter, so load balances automatically and the
// caller always makes progress even on a single-core machine.
struct ForState {
  explicit ForState(std::size_t count, const std::function<void(std::size_t)>& fn)
      : n(count), body(fn) {}

  void drain() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }

  void helper_done() {
    {
      const std::lock_guard<std::mutex> lock(done_mutex);
      --helpers_active;
    }
    done.notify_one();
  }

  const std::size_t n;
  const std::function<void(std::size_t)>& body;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::mutex done_mutex;
  std::condition_variable done;
  int helpers_active = 0;
};

}  // namespace

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (n == 1 || pool.is_worker_thread()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // The caller participates, so spawn at most enough helpers to give every
  // index its own thread.
  const auto state = std::make_shared<ForState>(n, body);
  const unsigned helpers =
      static_cast<unsigned>(std::min<std::size_t>(pool.size(), n - 1));
  state->helpers_active = static_cast<int>(helpers);
  for (unsigned i = 0; i < helpers; ++i) {
    pool.submit([state] {
      state->drain();
      state->helper_done();
    });
  }

  state->drain();
  {
    std::unique_lock<std::mutex> lock(state->done_mutex);
    state->done.wait(lock, [&] { return state->helpers_active == 0; });
  }
  if (state->error) std::rethrow_exception(state->error);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  parallel_for(ThreadPool::shared(), n, body);
}

}  // namespace hemp
