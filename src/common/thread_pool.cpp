#include "common/thread_pool.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <string_view>

#include "common/metrics.hpp"

namespace dsml {

namespace {

std::size_t default_thread_count() {
  const char* env = std::getenv("DSML_THREADS");
  if (env == nullptr || *env == '\0') {
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // from_chars on an unsigned type takes digits only: no sign, no
  // whitespace, and out-of-range values fail instead of wrapping.
  const std::string_view text(env);
  std::size_t threads = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), threads);
  if (ec != std::errc() || ptr != text.data() + text.size() || threads == 0) {
    throw InvalidArgument("DSML_THREADS='" + std::string(text) +
                          "' is not a thread count (expected a decimal "
                          "integer >= 1)");
  }
  return threads;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  try {
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // A vector of joinable threads must not be destroyed.
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() noexcept {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::note_task_submitted() noexcept {
  static metrics::Counter& tasks = metrics::counter("pool.tasks");
  tasks.add();
}

void ThreadPool::note_queue_wait(
    std::chrono::steady_clock::time_point enqueued) noexcept {
  static metrics::Histogram& wait = metrics::histogram("pool.queue_wait_us");
  const auto waited = std::chrono::steady_clock::now() - enqueued;
  wait.observe(static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(waited).count()));
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

namespace {

/// One parallel_for's shared state. Chunks are claimed from `next_` under
/// `mutex_`; `running_` counts chunks claimed and not yet finished. Helpers
/// own the state through a shared_ptr, so a helper dequeued after the loop
/// has drained finds no chunk left and returns without touching `fn`, which
/// lives on the caller's stack.
class Loop {
 public:
  Loop(std::size_t begin, std::size_t end, std::size_t grain,
       const std::function<void(std::size_t)>& fn)
      : fn_(fn), next_(begin), end_(end), grain_(grain) {}

  /// A helper's share: run chunks until none is left.
  void help() {
    std::unique_lock lock(mutex_);
    work(lock);
  }

  /// The caller's share: run chunks until none is left, wait for the chunks
  /// other threads claimed, then rethrow the first error.
  void run() {
    std::unique_lock lock(mutex_);
    work(lock);
    finished_.wait(lock, [this] { return running_ == 0; });
    // Moved out, so the exception dies on this thread rather than with the
    // last helper's reference to the loop.
    if (std::exception_ptr error = std::move(error_)) {
      std::rethrow_exception(error);
    }
  }

 private:
  void work(std::unique_lock<std::mutex>& lock) {
    while (next_ < end_) {
      const std::size_t chunk_begin = next_;
      const std::size_t chunk_end =
          end_ - chunk_begin > grain_ ? chunk_begin + grain_ : end_;
      next_ = chunk_end;
      ++running_;
      lock.unlock();
      std::exception_ptr thrown;
      try {
        for (std::size_t i = chunk_begin; i < chunk_end; ++i) fn_(i);
      } catch (...) {
        thrown = std::current_exception();
      }
      lock.lock();
      --running_;
      if (thrown) {
        if (!error_) error_ = std::move(thrown);
        next_ = end_;  // chunks nobody has claimed are skipped
      }
    }
    // Nothing is left to claim, so the caller may be waiting on running_.
    if (running_ == 0) finished_.notify_all();
  }

  const std::function<void(std::size_t)>& fn_;
  std::mutex mutex_;
  std::condition_variable finished_;
  std::size_t next_;
  const std::size_t end_;
  const std::size_t grain_;
  std::size_t running_ = 0;
  std::exception_ptr error_;
};

}  // namespace

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t workers = pool.size();
  if (grain == 0) {
    grain = std::max<std::size_t>(1, n / (workers * 4));
  }
  const std::size_t chunks = (n - 1) / grain + 1;
  const std::size_t helpers = std::min(workers, chunks) - 1;
  if (helpers == 0) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const auto loop = std::make_shared<Loop>(begin, end, grain, fn);
  std::exception_ptr submit_error;
  try {
    for (std::size_t h = 0; h < helpers; ++h) {
      pool.submit([loop] { loop->help(); });
    }
  } catch (...) {
    // Helpers queued before the failure may still start, so the loop must
    // finish before the error leaves this frame.
    submit_error = std::current_exception();
  }
  loop->run();
  if (submit_error) std::rethrow_exception(submit_error);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  parallel_for(ThreadPool::global(), begin, end, fn, grain);
}

void parallel_for_chunks(
    ThreadPool& pool, std::size_t begin, std::size_t end, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  DSML_REQUIRE(chunk > 0, "parallel_for_chunks: chunk must be > 0");
  const std::size_t n_chunks = (end - begin + chunk - 1) / chunk;
  parallel_for(
      pool, 0, n_chunks,
      [&](std::size_t c) {
        const std::size_t chunk_begin = begin + c * chunk;
        const std::size_t chunk_end = std::min(chunk_begin + chunk, end);
        fn(chunk_begin, chunk_end);
      },
      /*grain=*/1);
}

void parallel_for_chunks(
    std::size_t begin, std::size_t end, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_for_chunks(ThreadPool::global(), begin, end, chunk, fn);
}

}  // namespace dsml
