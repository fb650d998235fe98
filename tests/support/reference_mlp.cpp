#include "support/reference_mlp.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dsml::ml::reference {

namespace {
inline double sigmoid(double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); }
}  // namespace

Network::Network(const Mlp& net)
    : n_inputs_(net.n_inputs()),
      layers_(net.layers().begin(), net.layers().end()) {
  for (std::size_t j = 0; j < n_inputs_; ++j) {
    input_enabled_.push_back(net.input_enabled(j));
  }
}

void Network::forward_pass(
    std::span<const double> x,
    std::vector<std::vector<double>>& activations) const {
  auto& input = activations[0];
  for (std::size_t j = 0; j < n_inputs_; ++j) {
    input[j] = input_enabled_[j] ? x[j] : 0.0;
  }
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Mlp::Layer& layer = layers_[li];
    const auto& in = activations[li];
    auto& out = activations[li + 1];
    for (std::size_t i = 0; i < layer.w.rows(); ++i) {
      double z = layer.b[i];
      const auto wrow = layer.w.row(i);
      for (std::size_t j = 0; j < wrow.size(); ++j) z += wrow[j] * in[j];
      out[i] = layer.output ? z : sigmoid(z);
    }
  }
}

double Network::train_epoch(const linalg::Matrix& x,
                            std::span<const double> y, double learning_rate,
                            double momentum, Rng& rng) {
  DSML_REQUIRE(x.rows() == y.size() && !y.empty(),
               "reference::Network::train_epoch: size mismatch");
  DSML_REQUIRE(x.cols() == n_inputs_,
               "reference::Network::train_epoch: input width mismatch");

  std::vector<std::size_t> order(x.rows());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);

  std::vector<std::vector<double>> activations(layers_.size() + 1);
  std::vector<std::vector<double>> deltas(layers_.size());
  activations[0].assign(n_inputs_, 0.0);
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    activations[li + 1].assign(layers_[li].w.rows(), 0.0);
    deltas[li].assign(layers_[li].w.rows(), 0.0);
  }

  double ss = 0.0;
  for (std::size_t sample : order) {
    forward_pass(x.row(sample), activations);
    const double yhat = activations.back()[0];
    const double err = yhat - y[sample];
    ss += err * err;

    // Output delta (linear activation): dL/dz = err.
    deltas.back()[0] = err;
    // Hidden deltas, back to front: per element the products accumulate in
    // ascending unit order of the next layer.
    for (std::size_t li = layers_.size() - 1; li-- > 0;) {
      const Mlp::Layer& next = layers_[li + 1];
      auto& delta = deltas[li];
      const auto& delta_next = deltas[li + 1];
      const auto& act = activations[li + 1];
      std::fill(delta.begin(), delta.end(), 0.0);
      for (std::size_t i = 0; i < next.w.rows(); ++i) {
        const double dn = delta_next[i];
        const auto wrow = next.w.row(i);
        for (std::size_t j = 0; j < delta.size(); ++j) {
          delta[j] += wrow[j] * dn;
        }
      }
      for (std::size_t j = 0; j < delta.size(); ++j) {
        delta[j] = delta[j] * act[j] * (1.0 - act[j]);  // sigmoid'
      }
    }
    // Weight updates with momentum.
    for (std::size_t li = 0; li < layers_.size(); ++li) {
      Mlp::Layer& layer = layers_[li];
      const auto& in = activations[li];
      const auto& delta = deltas[li];
      for (std::size_t i = 0; i < layer.w.rows(); ++i) {
        const double di = delta[i];
        auto wrow = layer.w.row(i);
        auto vrow = layer.w_vel.row(i);
        const auto mrow = layer.w_mask.row(i);
        for (std::size_t j = 0; j < wrow.size(); ++j) {
          if (mrow[j] == 0.0) continue;
          vrow[j] = momentum * vrow[j] - learning_rate * di * in[j];
          wrow[j] += vrow[j];
        }
        layer.b_vel[i] = momentum * layer.b_vel[i] - learning_rate * di;
        layer.b[i] += layer.b_vel[i];
      }
    }
  }
  return ss / static_cast<double>(y.size());
}

double mse(const Mlp& net, const linalg::Matrix& x,
           std::span<const double> y) {
  DSML_REQUIRE(x.rows() == y.size() && !y.empty(),
               "reference::mse: size mismatch");
  const std::vector<double> pred = net.predict(x);
  double ss = 0.0;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const double d = pred[r] - y[r];
    ss += d * d;
  }
  return ss / static_cast<double>(y.size());
}

}  // namespace dsml::ml::reference
