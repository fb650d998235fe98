// Feed-forward multilayer perceptron with online backpropagation.
//
// This is the network substrate beneath the five Clementine-style training
// regimes (ml/nn_models.hpp). Architecture follows the paper's description
// (§3.2): fully connected layers, sigmoid hidden activations, and — since we
// model a single scaled response — one linear output unit. Training is
// stochastic gradient descent with momentum (the "backpropagation procedure,
// variation of steepest descent" the paper cites), sample order reshuffled
// every epoch from a caller-supplied deterministic Rng.
//
// The prune-based regimes need structural surgery, so the network supports
// removing hidden units, disabling input features, and magnitude-based
// weight pruning with frozen masks.
//
// Prediction is const and thread-safe: forward passes draw scratch from the
// calling thread's linalg::Workspace instead of shared members, and the
// batched predict(Matrix) runs layer-wise blocked kernels over row chunks
// dispatched across the global thread pool.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/serial.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

namespace dsml::ml {

class Mlp {
 public:
  /// Builds a network with the given hidden-layer widths (may be empty for a
  /// pure linear model). Weights are initialised uniform ±1/sqrt(fan_in).
  Mlp(std::size_t n_inputs, std::vector<std::size_t> hidden, Rng& rng);

  std::size_t n_inputs() const noexcept { return n_inputs_; }
  const std::vector<std::size_t>& hidden_sizes() const noexcept {
    return hidden_sizes_;
  }

  /// Number of trainable (non-masked) weights, biases included.
  std::size_t parameter_count() const noexcept;

  /// Forward pass; x.size() must equal n_inputs(). Thread-safe: scratch
  /// comes from the calling thread's workspace, so concurrent predict calls
  /// on one trained network never share state.
  double predict(std::span<const double> x) const;

  /// Batch prediction over the rows of a matrix: layer-wise matrix-matrix
  /// kernels over row chunks, parallelized across the global thread pool
  /// with per-thread scratch. Bit-identical to calling predict() per row
  /// (same per-element addition order; see linalg/kernels.hpp).
  std::vector<double> predict(const linalg::Matrix& x) const;

  /// Mean squared error over a batch (batched forward, serial reduction in
  /// row order — bit-identical to the per-row formulation).
  double mse(const linalg::Matrix& x, std::span<const double> y) const;

  /// One epoch of online backprop over (x, y) in a random order; returns the
  /// epoch's running MSE (computed pre-update per sample).
  double train_epoch(const linalg::Matrix& x, std::span<const double> y,
                     double learning_rate, double momentum, Rng& rng);

  // ---- structural surgery (for the prune regimes) ----

  /// L1 norm of the outgoing weights of one hidden unit — the saliency used
  /// to decide pruning order.
  double hidden_unit_saliency(std::size_t layer, std::size_t unit) const;

  /// Saliency of an input feature: L1 norm of its first-layer weights.
  double input_saliency(std::size_t input) const;

  /// Remove hidden unit `unit` of hidden layer `layer` (and its fan-in /
  /// fan-out weights). The layer must keep at least one unit.
  void remove_hidden_unit(std::size_t layer, std::size_t unit);

  /// Append one freshly initialised unit to hidden layer `layer`, keeping all
  /// existing weights (the growth step of the Dynamic regime).
  void add_hidden_unit(std::size_t layer, Rng& rng);

  /// Permanently disable an input feature: zero and freeze its first-layer
  /// weights (the feature column may still be present in inputs; it just no
  /// longer affects the output).
  void disable_input(std::size_t input);

  bool input_enabled(std::size_t input) const;
  std::size_t enabled_input_count() const noexcept;

  /// Zero and freeze the `fraction` smallest-magnitude weights network-wide
  /// (biases exempt).
  void prune_smallest_weights(double fraction);

  /// Persist weights/masks/topology; momentum buffers reset on load.
  void save(serial::Writer& writer) const;
  static Mlp load(serial::Reader& reader);

 private:
  Mlp() = default;  // used by load()

  struct Layer {
    linalg::Matrix w;         // out x in
    linalg::Matrix w_mask;    // 1 trainable, 0 frozen
    linalg::Matrix w_vel;     // momentum buffer
    std::vector<double> b;
    std::vector<double> b_vel;
    bool output = false;      // linear activation if true, sigmoid otherwise
  };

  void forward_pass(std::span<const double> x,
                    std::vector<std::vector<double>>& activations) const;

  /// Batched forward over `rows` consecutive input rows (row-major, leading
  /// dimension ldx) writing one prediction per row into out[0..rows).
  /// Scratch comes from `ws`; safe to call concurrently with distinct
  /// workspaces.
  void forward_block(const double* x, std::size_t ldx, std::size_t rows,
                     double* out, linalg::Workspace& ws) const;

  bool all_inputs_enabled() const noexcept;

  std::size_t n_inputs_ = 0;
  std::vector<std::size_t> hidden_sizes_;
  std::vector<Layer> layers_;
  std::vector<bool> input_enabled_;
};

/// The matrix layout Mlp::save writes: rows, cols, then the values in row
/// order. Like serial::Reader's vectors, load_matrix grows its storage only
/// with the values it reads, so a corrupt shape fails as an IoError.
void save_matrix(serial::Writer& writer, const linalg::Matrix& m);
linalg::Matrix load_matrix(serial::Reader& reader);

}  // namespace dsml::ml
