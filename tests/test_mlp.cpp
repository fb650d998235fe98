#include "ml/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "ml/mlp_trainer.hpp"

namespace dsml::ml {
namespace {

linalg::Matrix toy_inputs(std::size_t n, Rng& rng) {
  linalg::Matrix x(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
  }
  return x;
}

std::vector<double> toy_targets(const linalg::Matrix& x) {
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    // Mildly nonlinear, range ~[0,1].
    y[i] = 0.3 * x(i, 0) + 0.4 * x(i, 1) * x(i, 1) + 0.1;
  }
  return y;
}

TEST(Mlp, ConstructionShape) {
  Rng rng(1);
  Mlp net(3, {5, 4}, rng);
  EXPECT_EQ(net.n_inputs(), 3u);
  ASSERT_EQ(net.hidden_sizes().size(), 2u);
  EXPECT_EQ(net.hidden_sizes()[0], 5u);
  EXPECT_EQ(net.hidden_sizes()[1], 4u);
  // Weights: 3*5+5 + 5*4+4 + 4*1+1 = 49.
  EXPECT_EQ(net.parameter_count(), 49u);
}

TEST(Mlp, DeterministicFromSeed) {
  Rng a(7);
  Rng b(7);
  Mlp na(2, {4}, a);
  Mlp nb(2, {4}, b);
  const std::vector<double> x = {0.3, 0.8};
  EXPECT_DOUBLE_EQ(na.predict(x), nb.predict(x));
}

TEST(Mlp, PredictInputSizeChecked) {
  Rng rng(2);
  Mlp net(3, {2}, rng);
  const std::vector<double> bad = {1.0, 2.0};
  EXPECT_THROW(net.predict(bad), InvalidArgument);
}

TEST(Mlp, NoHiddenLayerIsLinearModel) {
  Rng rng(3);
  Mlp net(2, {}, rng);
  // Output must be an affine function of inputs: check superposition.
  const std::vector<double> zero = {0.0, 0.0};
  const std::vector<double> e1 = {1.0, 0.0};
  const std::vector<double> e2 = {0.0, 1.0};
  const std::vector<double> both = {1.0, 1.0};
  const double b = net.predict(zero);
  EXPECT_NEAR(net.predict(both) - b,
              (net.predict(e1) - b) + (net.predict(e2) - b), 1e-12);
}

TEST(Mlp, TrainingReducesError) {
  Rng rng(4);
  const linalg::Matrix x = toy_inputs(64, rng);
  const std::vector<double> y = toy_targets(x);
  MlpTrainer trainer(Mlp(2, {6}, rng));
  const double before = trainer.mse(x, y);
  for (int epoch = 0; epoch < 200; ++epoch) {
    trainer.train_epoch(x, y, 0.2, 0.9, rng);
  }
  const double after = trainer.mse(x, y);
  EXPECT_LT(after, before * 0.2);
  EXPECT_LT(after, 0.01);
}

TEST(Mlp, BatchPredictionMatchesSingle) {
  Rng rng(5);
  const linalg::Matrix x = toy_inputs(8, rng);
  Mlp net(2, {3}, rng);
  const auto batch = net.predict(x);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], net.predict(x.row(i)));
  }
}

TEST(Mlp, RemoveHiddenUnitShrinksLayer) {
  Rng rng(6);
  Mlp net(2, {5}, rng);
  const std::size_t params_before = net.parameter_count();
  net.remove_hidden_unit(0, 2);
  EXPECT_EQ(net.hidden_sizes()[0], 4u);
  // Removed: 2 incoming weights + 1 bias + 1 outgoing weight = 4.
  EXPECT_EQ(net.parameter_count(), params_before - 4);
  const std::vector<double> x = {0.5, 0.5};
  EXPECT_TRUE(std::isfinite(net.predict(x)));
}

TEST(Mlp, RemoveLastUnitThrows) {
  Rng rng(7);
  Mlp net(2, {1}, rng);
  EXPECT_THROW(net.remove_hidden_unit(0, 0), InvalidArgument);
}

TEST(Mlp, AddHiddenUnitPreservesExistingBehaviourApproximately) {
  Rng rng(8);
  Mlp net(2, {3}, rng);
  const std::vector<double> x = {0.4, 0.6};
  const double before = net.predict(x);
  net.add_hidden_unit(0, rng);
  EXPECT_EQ(net.hidden_sizes()[0], 4u);
  // The new unit has small random outgoing weights, so the output moves
  // a bounded amount, not wildly.
  EXPECT_NEAR(net.predict(x), before, 1.0);
}

TEST(Mlp, DisableInputRemovesItsEffect) {
  Rng rng(9);
  Mlp net(2, {4}, rng);
  net.disable_input(1);
  EXPECT_FALSE(net.input_enabled(1));
  EXPECT_TRUE(net.input_enabled(0));
  EXPECT_EQ(net.enabled_input_count(), 1u);
  const std::vector<double> a = {0.5, 0.1};
  const std::vector<double> b = {0.5, 0.9};
  EXPECT_DOUBLE_EQ(net.predict(a), net.predict(b));
}

TEST(Mlp, DisabledInputStaysZeroThroughTraining) {
  Rng rng(10);
  const linalg::Matrix x = toy_inputs(32, rng);
  const std::vector<double> y = toy_targets(x);
  Mlp net(2, {4}, rng);
  net.disable_input(0);
  MlpTrainer trainer(std::move(net));
  for (int epoch = 0; epoch < 50; ++epoch) {
    trainer.train_epoch(x, y, 0.2, 0.9, rng);
  }
  net = trainer.current();
  const std::vector<double> a = {0.0, 0.5};
  const std::vector<double> b = {1.0, 0.5};
  EXPECT_DOUBLE_EQ(net.predict(a), net.predict(b));
}

TEST(Mlp, SaliencyNonNegative) {
  Rng rng(11);
  Mlp net(3, {4}, rng);
  for (std::size_t u = 0; u < 4; ++u) {
    EXPECT_GE(net.hidden_unit_saliency(0, u), 0.0);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(net.input_saliency(i), 0.0);
  }
  net.disable_input(2);
  EXPECT_DOUBLE_EQ(net.input_saliency(2), 0.0);
}

TEST(Mlp, PruneSmallestWeightsReducesParameters) {
  Rng rng(12);
  Mlp net(4, {8}, rng);
  const std::size_t before = net.parameter_count();
  net.prune_smallest_weights(0.25);
  EXPECT_LT(net.parameter_count(), before);
  // Biases are exempt, weights only: 4*8 + 8*1 = 40 weights, 25% = 10 frozen.
  EXPECT_EQ(net.parameter_count(), before - 10);
}

TEST(Mlp, PruneZeroFractionNoop) {
  Rng rng(13);
  Mlp net(2, {4}, rng);
  const std::size_t before = net.parameter_count();
  net.prune_smallest_weights(0.0);
  EXPECT_EQ(net.parameter_count(), before);
}

TEST(Mlp, PrunedWeightsStayFrozenDuringTraining) {
  Rng rng(14);
  const linalg::Matrix x = toy_inputs(32, rng);
  const std::vector<double> y = toy_targets(x);
  Mlp net(2, {4}, rng);
  net.prune_smallest_weights(0.5);
  const std::size_t frozen_params = net.parameter_count();
  MlpTrainer trainer(std::move(net));
  for (int epoch = 0; epoch < 20; ++epoch) {
    trainer.train_epoch(x, y, 0.2, 0.9, rng);
  }
  EXPECT_EQ(trainer.current().parameter_count(), frozen_params);
}

TEST(Mlp, TrainEpochReturnsMse) {
  Rng rng(15);
  const linalg::Matrix x = toy_inputs(16, rng);
  const std::vector<double> y = toy_targets(x);
  MlpTrainer trainer(Mlp(2, {3}, rng));
  const double mse = trainer.train_epoch(x, y, 0.1, 0.9, rng);
  EXPECT_GT(mse, 0.0);
  EXPECT_TRUE(std::isfinite(mse));
}

TEST(Mlp, ZeroWidthHiddenLayerThrows) {
  Rng rng(16);
  EXPECT_THROW(Mlp(2, {0}, rng), InvalidArgument);
}

}  // namespace
}  // namespace dsml::ml
