// The six neural-network training regimes of the paper (§3.2), re-created
// from the documented behaviour of SPSS Clementine's neural network node:
//
//   NN-Q  Quick            — one hidden layer sized by rule of thumb,
//                            decaying learning rate, early stopping;
//   NN-D  Dynamic          — starts with a small hidden layer and grows it
//                            while validation error keeps improving;
//   NN-M  Multiple         — trains several candidate topologies and keeps
//                            the best;
//   NN-P  Prune            — trains a deliberately large network, then
//                            alternately removes the weakest hidden units
//                            and input features while quality holds;
//   NN-E  Exhaustive prune — the slowest, most thorough search: a wide
//                            topology menu, long training, a full prune
//                            schedule and magnitude weight-pruning; usually
//                            the most accurate (paper §4.2);
//   NN-S  Single           — one small hidden layer with a constant
//                            learning rate; the Ipek-et-al. baseline.
//
// All regimes follow Clementine's protocol (§3.3): the training data is
// split into random halves, one used for weight updates and one to "simulate"
// (select topology / stop early); the best network is finally fine-tuned on
// the full training set.
#pragma once

#include <optional>

#include "data/encoder.hpp"
#include "ml/mlp.hpp"
#include "ml/model.hpp"

namespace dsml::ml {

enum class NnMethod {
  kQuick,
  kDynamic,
  kMultiple,
  kPrune,
  kExhaustivePrune,
  kSingle,
};

const char* to_string(NnMethod method) noexcept;

class NeuralRegressor final : public Regressor {
 public:
  struct Options {
    NnMethod method = NnMethod::kExhaustivePrune;
    std::uint64_t seed = 0x5eed;
    /// 0 = per-method default.
    std::size_t max_epochs = 0;
    double momentum = 0.9;
    /// Scales every per-method epoch budget; lets tests run fast and lets
    /// callers buy accuracy with time.
    double epoch_scale = 1.0;
  };

  NeuralRegressor();
  explicit NeuralRegressor(Options options);

  void fit(const data::Dataset& train) override;
  std::vector<double> predict(const data::Dataset& dataset) const override;
  std::string name() const override;
  std::vector<PredictorImportance> importance() const override;
  bool fitted() const noexcept override { return net_.has_value(); }

  /// The trained network (fit() required).
  const Mlp& network() const;

  const Options& options() const noexcept { return options_; }

  /// Persist / restore a fitted model (see ml/serialize.hpp for the
  /// file-level facade).
  void save(serial::Writer& writer) const;
  static NeuralRegressor load(serial::Reader& reader);

 private:
  struct Candidate {
    Mlp net;
    double val_mse = 0.0;
  };

  Candidate train_candidate(std::vector<std::size_t> hidden,
                            const linalg::Matrix& x_learn,
                            std::span<const double> y_learn,
                            const linalg::Matrix& x_val,
                            std::span<const double> y_val,
                            std::size_t max_epochs, double lr0, double lr1,
                            std::size_t patience, Rng& rng) const;

  Candidate run_quick(const linalg::Matrix& xl, std::span<const double> yl,
                      const linalg::Matrix& xv, std::span<const double> yv,
                      Rng& rng) const;
  Candidate run_single(const linalg::Matrix& xl, std::span<const double> yl,
                       const linalg::Matrix& xv, std::span<const double> yv,
                       Rng& rng) const;
  Candidate run_dynamic(const linalg::Matrix& xl, std::span<const double> yl,
                        const linalg::Matrix& xv, std::span<const double> yv,
                        Rng& rng) const;
  Candidate run_multiple(const linalg::Matrix& xl, std::span<const double> yl,
                         const linalg::Matrix& xv, std::span<const double> yv,
                         bool wide_menu, Rng& rng) const;
  Candidate run_prune(Candidate start, const linalg::Matrix& xl,
                      std::span<const double> yl, const linalg::Matrix& xv,
                      std::span<const double> yv, bool exhaustive,
                      Rng& rng) const;

  std::size_t scaled(std::size_t epochs) const;

  Options options_;
  data::Encoder encoder_;
  std::optional<Mlp> net_;
  linalg::Matrix train_x_;           // retained for importance sweeps
  std::vector<double> train_y_scaled_;
};

}  // namespace dsml::ml
