// The reference the tests hold ml::MlpTrainer to: the scalar online-SGD
// loop that trained an Mlp before the trainer replaced it, one unit and one
// weight at a time over row-major layers, and the batched MSE that validated
// each epoch. The trainer's lane step must give the same bits for every
// weight, velocity, bias, epoch MSE and validation MSE
// (tests/test_mlp_trainer.cpp).
//
// No code in src/ runs the reference, so it stays frozen: a change to the
// trainer cannot also change what the tests compare it with. It counts no
// metrics and opens no trace spans.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "ml/mlp.hpp"

namespace dsml::ml::reference {

/// A copy of an Mlp's parameters, masks and input flags, trained in place.
class Network {
 public:
  explicit Network(const Mlp& net);

  /// One epoch of online backprop over (x, y) in the order rng.shuffle
  /// gives 0..n-1; returns the running MSE (each sample's error before its
  /// update).
  double train_epoch(const linalg::Matrix& x, std::span<const double> y,
                     double learning_rate, double momentum, Rng& rng);

  std::span<const Mlp::Layer> layers() const noexcept { return layers_; }

 private:
  void forward_pass(std::span<const double> x,
                    std::vector<std::vector<double>>& activations) const;

  std::size_t n_inputs_;
  std::vector<bool> input_enabled_;
  std::vector<Mlp::Layer> layers_;
};

/// The Mlp::mse of src before the trainer: the batched const predict, then
/// the squared errors summed in row order and divided by n.
double mse(const Mlp& net, const linalg::Matrix& x, std::span<const double> y);

}  // namespace dsml::ml::reference
