// One Mlp training run: online SGD with momentum over a layout the trainer
// keeps for all of the run's epochs.
//
// The trainer takes a network and holds every layer transposed, fan_in x
// fan_out with fan_out padded to the lane count by frozen zero units, with
// its momentum buffer and mask in the same layout. Epochs, the validation
// passes between them and the best-on-validation snapshot all work on that
// layout; current() and best() rebuild a row-major Mlp, velocities
// included, because a later run starts from them.
//
// The per-sample step is one vector-extension template over N lanes
// (ml/trainer_kernel.hpp): N = 8 needs AVX-512F, N = 4 AVX2, and N = 2 is
// the portable build every host runs. cpuid picks the widest once. Every
// width gives the same bits as the scalar loop it replaced, which
// tests/support/reference_mlp.cpp keeps and tests/test_mlp_trainer.cpp
// compares with each width the host runs.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "ml/mlp.hpp"

namespace dsml::ml {

namespace detail {
struct LaneLayer;    // ml/trainer_kernel.hpp
struct LaneNet;      // ml/trainer_kernel.hpp
struct LaneKernels;  // ml/trainer_kernel.hpp
}  // namespace detail

class MlpTrainer {
 public:
  /// Whether this build carries the n-lane step and the CPU runs it: n = 2
  /// always, n = 4 needs AVX2, n = 8 AVX-512F. False for any other n.
  static bool lanes_supported(std::size_t n) noexcept;

  /// The widest step the host runs: 8, 4 or 2.
  static std::size_t lane_width() noexcept;

  /// Takes `net` for one run with the `lanes`-wide step and sets the gauge
  /// ml.lane_width to `lanes`; throws StateError when lanes_supported(lanes)
  /// is false.
  explicit MlpTrainer(Mlp net, std::size_t lanes = lane_width());

  MlpTrainer(const MlpTrainer&) = delete;
  MlpTrainer& operator=(const MlpTrainer&) = delete;
  ~MlpTrainer();

  std::size_t lanes() const noexcept { return lanes_; }

  /// One epoch of online backprop over (x, y), samples in the order
  /// rng.shuffle gives 0..n-1; returns the epoch's running MSE (each
  /// sample's error before its update). Traced as the Mlp::train_epoch span
  /// and counted in ml.train_epochs; sets the ml.train_loss gauge.
  double train_epoch(const linalg::Matrix& x, std::span<const double> y,
                     double learning_rate, double momentum, Rng& rng);

  /// Mean squared error of the live network over (x, y), rows in order.
  double mse(const linalg::Matrix& x, std::span<const double> y);

  /// Copies the live weights, biases and velocities into the snapshot
  /// buffers. Construction takes the first snapshot.
  void keep_best();

  /// The live network, rebuilt row-major.
  Mlp current() const;

  /// The last keep_best() snapshot, rebuilt row-major.
  Mlp best() const;

 private:
  void require_rows(const linalg::Matrix& x, std::span<const double> y,
                    const char* what) const;
  detail::LaneNet lane_net() const;
  /// net_ with the weights, biases and velocities at `params`, a buffer laid
  /// out as the live one.
  Mlp rebuild(const double* params) const;

  Mlp net_;  ///< shape, masks and input flags; its weights are the start's
  std::size_t lanes_;
  const detail::LaneKernels* kernels_;
  std::vector<detail::LaneLayer> layers_;  ///< views into the buffers below
  std::vector<unsigned char> input_enabled_;
  /// Per layer w, v, b and bv, from live_, the first 64-byte boundary in
  /// params_. keep_best() copies them whole into best_.
  std::vector<double> params_;
  double* live_ = nullptr;
  std::vector<double> best_;
  std::vector<double> masks_;    ///< per layer, laid out as w
  std::vector<double> scratch_;  ///< per layer act, delta and lrd; input_
  double* input_ = nullptr;
  std::vector<std::size_t> order_;
};

}  // namespace dsml::ml
