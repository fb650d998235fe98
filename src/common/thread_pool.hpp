// Minimal work-stealing-free thread pool with a parallel_for helper.
//
// The experiment harness sweeps thousands of simulator configurations and
// trains many candidate networks; those tasks are embarrassingly parallel,
// so a fixed pool with a shared queue is sufficient and keeps the code simple
// (C++ Core Guidelines CP: prefer higher-level concurrency constructs over
// raw thread management scattered through the code).
//
// Concurrency contract (audited under ThreadSanitizer; see
// docs/STATIC_ANALYSIS.md):
//  - All queue/stop state is guarded by one mutex; completion of submit()
//    tasks is observed through the futures it returns, whose shared state
//    provides the necessary release/acquire ordering.
//  - parallel_for's caller runs chunks of its own loop beside at most
//    size()-1 helper tasks, and waits only for chunks that a running thread
//    has already claimed. A nested loop (called from inside a chunk, on any
//    thread) therefore reaches idle workers, yet cannot deadlock a fully
//    busy pool: its caller does every unclaimed chunk itself, and a queued
//    helper is never waited for. A waiting caller never runs an unrelated
//    task, and an external caller plus its helpers never exceeds size()
//    busy threads.
//  - The global pool size honours the DSML_THREADS environment variable,
//    which CI uses to force real concurrency on single-core runners.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace dsml {

class ThreadPool {
 public:
  /// Creates a pool with `threads` workers; 0 means the DSML_THREADS
  /// environment variable if set, else hardware_concurrency (minimum 1).
  /// Throws InvalidArgument when DSML_THREADS is set but is not a decimal
  /// integer >= 1. If a worker fails to start, the started ones are joined
  /// before the error propagates.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; returns a future for its completion. Throws StateError
  /// if the pool is already shutting down.
  template <typename F>
  std::future<void> submit(F&& fn) {
    auto task = std::make_shared<std::packaged_task<void()>>(
        std::forward<F>(fn));
    std::future<void> fut = task->get_future();
    // Observability: tasks are counted and their enqueue→dequeue latency
    // feeds the pool.queue_wait_us histogram (see common/metrics.hpp). Both
    // hooks are relaxed atomics; submissions are coarse (at most size()-1
    // helpers per parallel_for), so the extra clock read is noise.
    note_task_submitted();
    const auto enqueued = std::chrono::steady_clock::now();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) {
        throw StateError("ThreadPool::submit: pool is shutting down");
      }
      queue_.emplace([task, enqueued]() mutable {
        note_queue_wait(enqueued);
        (*task)();
      });
    }
    cv_.notify_one();
    return fut;
  }

  /// Shared process-wide pool (lazily created; sized per the constructor's
  /// `threads == 0` rule).
  static ThreadPool& global();

 private:
  void worker_loop();
  void stop_and_join() noexcept;

  /// Metrics hooks (defined in the .cpp so the header stays light).
  static void note_task_submitted() noexcept;
  static void note_queue_wait(
      std::chrono::steady_clock::time_point enqueued) noexcept;

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Runs fn(i) for i in [begin, end) across `pool`, blocking until all
/// iterations complete. Iterations are chunked to amortise dispatch; the
/// calling thread runs chunks too. Exceptions thrown by fn propagate to the
/// caller (first one wins; chunks not yet started are skipped). Runs inline
/// when the pool has a single worker or the range is a single chunk. Safe to
/// call from inside fn of another parallel_for (see the contract above).
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 0);

/// parallel_for over the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 0);

/// Runs fn(chunk_begin, chunk_end) over [begin, end) split into chunks of at
/// most `chunk` elements. The batched prediction paths use this so each call
/// amortises per-chunk setup (workspace acquisition, layer scratch) over many
/// rows instead of paying it per element. Same semantics as parallel_for.
void parallel_for_chunks(
    ThreadPool& pool, std::size_t begin, std::size_t end, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn);

/// parallel_for_chunks over the global pool.
void parallel_for_chunks(
    std::size_t begin, std::size_t end, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace dsml
