// Thread-safety regression tests for Mlp prediction (run under the tsan
// label / ThreadSanitizer preset).
//
// Mlp::predict used to lean on a shared mutable scratch_activations_ member,
// so two threads predicting through the same trained network raced on the
// activation buffers and silently corrupted each other's outputs. Prediction
// scratch now lives in per-thread workspaces (linalg::tls_workspace), and
// these tests pin that down: concurrent batched and per-row predictions on
// one shared model must be race-free AND return exactly the serial answers.
#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "ml/mlp.hpp"
#include "ml/mlp_trainer.hpp"
#include "support/reference_mlp.hpp"

namespace dsml::ml {
namespace {

linalg::Matrix random_inputs(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix x(rows, cols);
  for (double& v : x.data()) v = rng.uniform(-1.0, 1.0);
  return x;
}

Mlp trained_network(std::size_t n_inputs, Rng& rng) {
  MlpTrainer trainer(Mlp(n_inputs, {8, 4}, rng));
  const linalg::Matrix x = random_inputs(64, n_inputs, 99);
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = 0.1 * static_cast<double>(i % 7);
  }
  for (int epoch = 0; epoch < 5; ++epoch) {
    trainer.train_epoch(x, y, 0.05, 0.5, rng);
  }
  return trainer.current();
}

TEST(ParallelPredict, BatchedMatchesPerRowBitForBit) {
  Rng rng(7);
  const Mlp net = trained_network(12, rng);
  const linalg::Matrix x = random_inputs(777, 12, 123);
  const std::vector<double> batched = net.predict(x);
  ASSERT_EQ(batched.size(), x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    ASSERT_EQ(batched[r], net.predict(x.row(r))) << "row " << r;
  }
}

TEST(ParallelPredict, BatchedMatchesPerRowWithDisabledInputs) {
  Rng rng(8);
  Mlp net = trained_network(12, rng);
  net.disable_input(3);
  net.disable_input(10);
  const linalg::Matrix x = random_inputs(300, 12, 124);
  const std::vector<double> batched = net.predict(x);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    ASSERT_EQ(batched[r], net.predict(x.row(r))) << "row " << r;
  }
}

TEST(ParallelPredict, ConcurrentPredictionsOnSharedModelAreDeterministic) {
  Rng rng(9);
  const Mlp net = trained_network(10, rng);
  const linalg::Matrix x = random_inputs(512, 10, 125);

  // Serial ground truth, computed before any concurrency starts.
  const std::vector<double> expected = net.predict(x);

  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 8;
  std::vector<std::vector<double>> results(kThreads);
  // Not vector<bool>: its bit-packing would make concurrent per-thread
  // element writes a data race in the test harness itself.
  std::vector<char> rows_ok(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Batched predictions (which themselves fan out over the pool) and
      // per-row predictions interleave across threads on the same model.
      for (int round = 0; round + 1 < kRounds; ++round) {
        results[t] = net.predict(x);
      }
      results[t] = net.predict(x);
      bool ok = true;
      for (std::size_t r = t; r < x.rows(); r += kThreads) {
        ok = ok && (net.predict(x.row(r)) == expected[r]);
      }
      rows_ok[t] = ok;
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(rows_ok[t]) << "thread " << t;
    ASSERT_EQ(results[t].size(), expected.size());
    for (std::size_t r = 0; r < expected.size(); ++r) {
      ASSERT_EQ(results[t][r], expected[r])
          << "thread " << t << " row " << r;
    }
  }
}

TEST(ParallelPredict, ConcurrentMseMatchesSerial) {
  Rng rng(10);
  const Mlp net = trained_network(6, rng);
  const linalg::Matrix x = random_inputs(256, 6, 126);
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = 0.01 * static_cast<double>(i);
  }
  const double expected = reference::mse(net, x, y);

  constexpr std::size_t kThreads = 3;
  std::vector<double> got(kThreads, 0.0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { got[t] = reference::mse(net, x, y); });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], expected) << "thread " << t;
  }
}

}  // namespace
}  // namespace dsml::ml
