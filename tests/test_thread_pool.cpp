#include "common/thread_pool.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

namespace dsml {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&] { ++counter; }));
  }
  for (auto& f : futures) f.wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, RespectsRange) {
  std::vector<std::atomic<int>> hits(100);
  parallel_for(10, 20, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 10 && i < 20) ? 1 : 0);
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesException) {
  EXPECT_THROW(
      parallel_for(0, 100,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ComputesCorrectSum) {
  std::vector<double> values(10000);
  parallel_for(0, values.size(), [&](std::size_t i) {
    values[i] = static_cast<double>(i);
  });
  const double sum = std::accumulate(values.begin(), values.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 10000.0 * 9999.0 / 2.0);
}

TEST(ParallelFor, CustomGrain) {
  std::vector<std::atomic<int>> hits(64);
  parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; }, 7);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ExplicitPoolOverload) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(500);
  parallel_for(pool, 0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HonoursDsmlThreadsEnv) {
  ASSERT_EQ(setenv("DSML_THREADS", "3", /*overwrite=*/1), 0);
  ThreadPool pool(0);
  unsetenv("DSML_THREADS");
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, RejectsADsmlThreadsThatIsNotAPositiveInteger) {
  // Only a decimal integer >= 1 is a thread count: no sign, no padding, no
  // suffix, nothing that overflows. The error names the variable and value.
  for (const char* bad :
       {"-1", "abc", "0", "4x", " 4", "+4", "18446744073709551616"}) {
    ASSERT_EQ(setenv("DSML_THREADS", bad, /*overwrite=*/1), 0);
    try {
      ThreadPool pool(0);
      ADD_FAILURE() << "DSML_THREADS='" << bad << "' gave " << pool.size()
                    << " threads";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("DSML_THREADS"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
          << what;
    }
  }
  unsetenv("DSML_THREADS");
}

/// Caps the address space at 1 GiB, which runs out of thread stacks long
/// before 5000 workers start, and exits 0 if the constructor throws. The
/// alarm bounds a constructor that hangs instead: destroying a condition
/// variable that workers still wait on blocks.
[[noreturn]] void start_too_many_workers() {
  alarm(60);
  const rlimit cap{1UL << 30, 1UL << 30};
  setrlimit(RLIMIT_AS, &cap);
  try {
    ThreadPool pool(5000);
  } catch (const std::system_error&) {
    std::_Exit(0);
  }
  std::_Exit(3);  // every worker started: the cap did not bite
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

TEST(ThreadPoolDeathTest, ConstructorJoinsStartedWorkersWhenOneFailsToStart) {
  if (kSanitized) {
    GTEST_SKIP() << "sanitizers reserve more address space than the cap";
  }
  // The constructor must join the workers it started before throwing;
  // destroying a vector of joinable threads would call std::terminate.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(start_too_many_workers(), ::testing::ExitedWithCode(0), "");
}

TEST(ThreadPool, EmptyDsmlThreadsKeepsTheDefault) {
  ASSERT_EQ(setenv("DSML_THREADS", "", /*overwrite=*/1), 0);
  ThreadPool pool(0);
  unsetenv("DSML_THREADS");
  EXPECT_EQ(pool.size(),
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
}

// --- Stress tests (run under the tsan ctest label) -------------------------

TEST(ThreadPoolStress, ManyShortTasksFromConcurrentSubmitters) {
  ThreadPool pool(4);
  constexpr int kSubmitters = 8;
  constexpr int kTasksEach = 250;
  std::atomic<int> executed{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      std::vector<std::future<void>> futures;
      futures.reserve(kTasksEach);
      for (int i = 0; i < kTasksEach; ++i) {
        futures.push_back(pool.submit([&] {
          executed.fetch_add(1, std::memory_order_relaxed);
        }));
      }
      for (auto& f : futures) f.wait();
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(executed.load(), kSubmitters * kTasksEach);
}

TEST(ThreadPoolStress, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(4);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] {
      if (i % 3 == 0) throw std::runtime_error("task failure");
    }));
  }
  int failures = 0;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (const std::runtime_error&) {
      ++failures;
    }
  }
  EXPECT_EQ(failures, 34);  // i = 0, 3, ..., 99
}

TEST(ThreadPoolStress, ConcurrentParallelForCallers) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> a(2000);
  std::vector<std::atomic<int>> b(2000);
  std::thread ta([&] {
    parallel_for(pool, 0, a.size(), [&](std::size_t i) { ++a[i]; });
  });
  std::thread tb([&] {
    parallel_for(pool, 0, b.size(), [&](std::size_t i) { ++b[i]; });
  });
  ta.join();
  tb.join();
  for (const auto& h : a) EXPECT_EQ(h.load(), 1);
  for (const auto& h : b) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolStress, NestedParallelForCompletesOnAFullPool) {
  // Every outer iteration nests a loop while both workers are busy with the
  // outer loop; the nested callers must run their own chunks instead of
  // waiting for helpers that no free worker can start.
  ThreadPool pool(2);
  std::atomic<int> leaf{0};
  parallel_for(pool, 0, 8, [&](std::size_t) {
    parallel_for(pool, 0, 8, [&](std::size_t) {
      leaf.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(leaf.load(), 64);
}

/// Lets each caller wait, for at most `limit`, until two distinct threads
/// have arrived. After one timeout it stops waiting, so a failing run costs
/// one limit rather than one per caller.
class TwoThreadRendezvous {
 public:
  bool arrive(std::chrono::seconds limit) {
    std::unique_lock lock(mutex_);
    threads_.insert(std::this_thread::get_id());
    cv_.notify_all();
    if (!cv_.wait_for(lock, limit, [this] {
          return threads_.size() >= 2 || timed_out_;
        })) {
      timed_out_ = true;
    }
    return threads_.size() >= 2;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::set<std::thread::id> threads_;
  bool timed_out_ = false;
};

TEST(ThreadPoolStress, NestedLoopReachesIdleWorkers) {
  // Two outer iterations leave some of four workers idle. Each inner loop's
  // body waits until a second thread has entered that inner loop, which
  // only an idle worker can be, so the inner loop must reach the pool
  // rather than run on the outer iteration's thread alone.
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 2;
  constexpr std::size_t kInner = 4;
  std::vector<TwoThreadRendezvous> rendezvous(kOuter);
  std::atomic<int> alone{0};
  parallel_for(pool, 0, kOuter, [&](std::size_t outer) {
    parallel_for(pool, 0, kInner, [&](std::size_t) {
      if (!rendezvous[outer].arrive(std::chrono::seconds(10))) {
        alone.fetch_add(1, std::memory_order_relaxed);
      }
    });
  });
  EXPECT_EQ(alone.load(), 0) << "an inner loop ran on one thread only";
}

TEST(ThreadPoolStress, ThreeLevelNestingWithExceptions) {
  // Each level has more iterations than the pool has workers. A throw at any
  // level must reach the top-level caller, and a clean run must cover every
  // leaf exactly once.
  ThreadPool pool(4);
  constexpr std::size_t kWidth = 6;
  std::vector<std::atomic<int>> hits(kWidth * kWidth * kWidth);
  const auto run = [&](int throw_level) {
    parallel_for(pool, 0, kWidth, [&](std::size_t a) {
      if (throw_level == 0 && a == 3) throw std::runtime_error("level 0");
      parallel_for(pool, 0, kWidth, [&](std::size_t b) {
        if (throw_level == 1 && a == 2 && b == 4) {
          throw std::runtime_error("level 1");
        }
        parallel_for(pool, 0, kWidth, [&](std::size_t c) {
          if (throw_level == 2 && a == 1 && b == 1 && c == 5) {
            throw std::runtime_error("level 2");
          }
          hits[(a * kWidth + b) * kWidth + c].fetch_add(
              1, std::memory_order_relaxed);
        });
      });
    });
  };
  for (int round = 0; round < 10; ++round) {
    for (int level = 0; level < 3; ++level) {
      try {
        run(level);
        ADD_FAILURE() << "the throw at level " << level << " was lost";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "level " + std::to_string(level));
      }
    }
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    run(-1);
    std::size_t wrong = 0;
    for (const auto& h : hits) wrong += h.load() == 1 ? 0 : 1;
    EXPECT_EQ(wrong, 0u) << "round " << round;
  }
}

TEST(ThreadPoolStress, ExceptionInOneChunkDoesNotBlockOthers) {
  ThreadPool pool(4);
  std::atomic<int> visited{0};
  EXPECT_THROW(
      parallel_for(pool, 0, 1000,
                   [&](std::size_t i) {
                     visited.fetch_add(1, std::memory_order_relaxed);
                     if (i == 500) throw std::logic_error("mid-loop");
                   }),
      std::logic_error);
  EXPECT_GT(visited.load(), 0);
}

}  // namespace
}  // namespace dsml
