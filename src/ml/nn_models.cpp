#include "ml/nn_models.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <string>

#include "common/failpoint.hpp"
#include "common/retry.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "data/split.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp_trainer.hpp"

namespace dsml::ml {

const char* to_string(NnMethod method) noexcept {
  switch (method) {
    case NnMethod::kQuick: return "NN-Q";
    case NnMethod::kDynamic: return "NN-D";
    case NnMethod::kMultiple: return "NN-M";
    case NnMethod::kPrune: return "NN-P";
    case NnMethod::kExhaustivePrune: return "NN-E";
    case NnMethod::kSingle: return "NN-S";
  }
  return "NN-?";
}

NeuralRegressor::NeuralRegressor() : NeuralRegressor(Options{}) {}

NeuralRegressor::NeuralRegressor(Options options) : options_(options) {
  DSML_REQUIRE(options_.momentum >= 0.0 && options_.momentum < 1.0,
               "NeuralRegressor: momentum outside [0,1)");
  DSML_REQUIRE(options_.epoch_scale > 0.0,
               "NeuralRegressor: epoch_scale must be positive");
}

namespace {

// Online SGD with momentum destabilises as hidden layers widen (per-sample
// gradients sum over more units), so learning rates are scaled down with
// network width; without this, wide nets saturate their sigmoids and
// collapse to predicting the mean.
double lr_scale(const Mlp& net) {
  std::size_t total_hidden = 0;
  for (std::size_t h : net.hidden_sizes()) total_hidden += h;
  return 1.0 /
         std::sqrt(std::max(1.0, static_cast<double>(total_hidden) / 12.0));
}

}  // namespace

std::size_t NeuralRegressor::scaled(std::size_t epochs) const {
  if (options_.max_epochs > 0) epochs = options_.max_epochs;
  const double e = static_cast<double>(epochs) * options_.epoch_scale;
  return std::max<std::size_t>(5, static_cast<std::size_t>(e));
}

// Train a fresh network with exponentially decaying learning rate (lr0→lr1),
// snapshotting the weights whenever validation error improves.
//
// SGD with momentum can blow up (non-finite epoch loss) on an unlucky weight
// draw; rather than returning a poisoned network, a diverged attempt throws
// TrainingError and is retried up to twice with halved learning rates and a
// fresh deterministic seed. Attempt 0 consumes the caller's RNG with the
// original rates, so a run that never diverges is bit-identical to the
// pre-retry implementation.
NeuralRegressor::Candidate NeuralRegressor::train_candidate(
    std::vector<std::size_t> hidden, const linalg::Matrix& x_learn,
    std::span<const double> y_learn, const linalg::Matrix& x_val,
    std::span<const double> y_val, std::size_t max_epochs, double lr0,
    double lr1, std::size_t patience, Rng& rng) const {
  auto attempt_once = [&](double a_lr0, double a_lr1, Rng& r) -> Candidate {
    Mlp net(x_learn.cols(), hidden, r);
    const double scale = lr_scale(net);
    a_lr0 *= scale;
    a_lr1 *= scale;
    MlpTrainer trainer(std::move(net));
    double best_val = trainer.mse(x_val, y_val);
    const double decay =
        max_epochs > 1 ? std::pow(a_lr1 / a_lr0,
                                  1.0 / static_cast<double>(max_epochs - 1))
                       : 1.0;
    double lr = a_lr0;
    std::size_t since_improve = 0;
    for (std::size_t epoch = 0; epoch < max_epochs; ++epoch) {
      const double train_mse =
          trainer.train_epoch(x_learn, y_learn, lr, options_.momentum, r);
      lr *= decay;
      const double val = trainer.mse(x_val, y_val);
      if (DSML_FAIL_POISON("nn.nonfinite_loss") || !std::isfinite(train_mse) ||
          !std::isfinite(val)) {
        throw TrainingError(to_string(options_.method),
                            "epoch " + std::to_string(epoch),
                            "non-finite loss (training diverged)");
      }
      if (val < best_val * (1.0 - 1e-5)) {
        trainer.keep_best();
        best_val = val;
        since_improve = 0;
      } else if (++since_improve >= patience) {
        break;
      }
    }
    return {trainer.best(), best_val};
  };
  // Retries must not consume the caller's RNG (that would shift every later
  // draw even on clean runs), so they use a private generator reseeded from
  // the configured seed and the attempt index.
  Rng retry_rng(options_.seed);
  return retry(
      3,
      [&](std::size_t attempt) {
        retry_rng.reseed(options_.seed + 0x9E3779B97F4A7C15ULL * attempt);
      },
      [&](std::size_t attempt) {
        const double damp = 1.0 / static_cast<double>(std::size_t{1} << attempt);
        return attempt_once(lr0 * damp, lr1 * damp,
                            attempt == 0 ? rng : retry_rng);
      });
}

namespace {

// Continue training an existing network (used by growth/prune retraining);
// returns the best-on-validation snapshot.
struct RetrainResult {
  Mlp net;
  double val_mse;
};

RetrainResult retrain(Mlp net, const linalg::Matrix& xl,
                      std::span<const double> yl, const linalg::Matrix& xv,
                      std::span<const double> yv, std::size_t epochs,
                      double lr0, double lr1, double momentum, Rng& rng) {
  const double scale = lr_scale(net);
  lr0 *= scale;
  lr1 *= scale;
  MlpTrainer trainer(std::move(net));
  double best_val = trainer.mse(xv, yv);
  const double decay =
      epochs > 1 ? std::pow(lr1 / lr0, 1.0 / static_cast<double>(epochs - 1))
                 : 1.0;
  double lr = lr0;
  for (std::size_t e = 0; e < epochs; ++e) {
    const double train_mse = trainer.train_epoch(xl, yl, lr, momentum, rng);
    lr *= decay;
    const double val = trainer.mse(xv, yv);
    // No local retry here: retraining starts from an already-good snapshot,
    // so divergence means the caller's whole growth/prune step is suspect.
    // The degradation layers upstream (estimate_error, SelectModel, dse
    // drivers) catch and record this.
    if (!std::isfinite(train_mse) || !std::isfinite(val)) {
      throw TrainingError("NN", "retrain epoch " + std::to_string(e),
                          "non-finite loss (training diverged)");
    }
    if (val < best_val * (1.0 - 1e-5)) {
      trainer.keep_best();
      best_val = val;
    }
  }
  return {trainer.best(), best_val};
}

}  // namespace

NeuralRegressor::Candidate NeuralRegressor::run_quick(
    const linalg::Matrix& xl, std::span<const double> yl,
    const linalg::Matrix& xv, std::span<const double> yv, Rng& rng) const {
  const std::size_t n_in = xl.cols();
  const std::size_t h = std::max<std::size_t>(3, (n_in + 1) / 2);
  return train_candidate({h}, xl, yl, xv, yv, scaled(400), 0.4, 0.02, 80,
                         rng);
}

NeuralRegressor::Candidate NeuralRegressor::run_single(
    const linalg::Matrix& xl, std::span<const double> yl,
    const linalg::Matrix& xv, std::span<const double> yv, Rng& rng) const {
  const std::size_t n_in = xl.cols();
  const std::size_t h = std::clamp<std::size_t>(n_in / 2, 2, 16);
  // Constant learning rate: lr1 == lr0; no early stopping (patience spans
  // the full budget) — the fast, simple Ipek-style baseline.
  const std::size_t epochs = scaled(250);
  return train_candidate({h}, xl, yl, xv, yv, epochs, 0.3, 0.3, epochs, rng);
}

NeuralRegressor::Candidate NeuralRegressor::run_dynamic(
    const linalg::Matrix& xl, std::span<const double> yl,
    const linalg::Matrix& xv, std::span<const double> yv, Rng& rng) const {
  const std::size_t n_in = xl.cols();
  const std::size_t max_units = std::max<std::size_t>(4, n_in);
  Candidate best =
      train_candidate({2}, xl, yl, xv, yv, scaled(200), 0.4, 0.05, 50, rng);
  Mlp current = best.net;
  std::size_t failures = 0;
  while (current.hidden_sizes()[0] < max_units && failures < 2) {
    current.add_hidden_unit(0, rng);
    RetrainResult r = retrain(current, xl, yl, xv, yv, scaled(120), 0.2,
                              0.02, options_.momentum, rng);
    current = r.net;
    if (r.val_mse < best.val_mse * (1.0 - 1e-4)) {
      best = {r.net, r.val_mse};
      failures = 0;
    } else {
      ++failures;
    }
  }
  return best;
}

NeuralRegressor::Candidate NeuralRegressor::run_multiple(
    const linalg::Matrix& xl, std::span<const double> yl,
    const linalg::Matrix& xv, std::span<const double> yv, bool wide_menu,
    Rng& rng) const {
  const std::size_t n = xl.cols();
  std::vector<std::vector<std::size_t>> menu;
  menu.push_back({std::max<std::size_t>(2, n / 4)});
  menu.push_back({std::max<std::size_t>(3, n / 2)});
  menu.push_back({std::max<std::size_t>(4, n)});
  if (n >= 6) menu.push_back({std::max<std::size_t>(4, n / 2),
                              std::max<std::size_t>(2, n / 4)});
  if (wide_menu) {
    menu.push_back({std::max<std::size_t>(4, (3 * n) / 2)});
    menu.push_back({std::max<std::size_t>(4, 2 * n)});
    if (n >= 6) menu.push_back({n, std::max<std::size_t>(2, n / 2)});
  }
  const std::size_t epochs = wide_menu ? scaled(500) : scaled(350);
  const std::size_t patience = wide_menu ? 100 : 60;

  // Each topology trains on its own child stream, drawn here in menu order
  // (the draws the serial loop made), so the topologies train in parallel.
  // The reduction stays serial and in menu order, and a failure is rethrown
  // from the lowest menu index, so the winner and any error match the
  // serial loop's.
  std::vector<Rng> children;
  children.reserve(menu.size());
  for (const auto& hidden : menu) {
    children.push_back(rng.split(hidden.size() * 131 + hidden[0]));
  }
  std::vector<std::optional<Candidate>> trained(menu.size());
  std::vector<std::exception_ptr> errors(menu.size());
  parallel_for(0, menu.size(), [&](std::size_t i) {
    try {
      trained[i] = train_candidate(menu[i], xl, yl, xv, yv, epochs, 0.4, 0.02,
                                   patience, children[i]);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  std::optional<Candidate> best;
  for (std::size_t i = 0; i < menu.size(); ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
    if (!best || trained[i]->val_mse < best->val_mse) {
      best = std::move(trained[i]);
    }
  }
  return *best;
}

NeuralRegressor::Candidate NeuralRegressor::run_prune(
    Candidate start, const linalg::Matrix& xl, std::span<const double> yl,
    const linalg::Matrix& xv, std::span<const double> yv, bool exhaustive,
    Rng& rng) const {
  Candidate best = std::move(start);
  Mlp current = best.net;
  // Accept a pruned network if validation error stays within this factor of
  // the best seen; exhaustive mode insists on stricter quality.
  const double tolerance = exhaustive ? 1.005 : 1.02;
  const std::size_t retrain_epochs = exhaustive ? scaled(150) : scaled(80);
  std::size_t unit_failures = 0;
  std::size_t input_failures = 0;
  bool try_unit = true;  // alternate unit/input pruning

  while (unit_failures < 2 || input_failures < 2) {
    bool did_something = false;
    if (try_unit && unit_failures < 2) {
      // Find the least salient removable hidden unit across layers.
      std::size_t best_layer = 0;
      std::size_t best_unit = 0;
      double best_sal = std::numeric_limits<double>::infinity();
      bool found = false;
      for (std::size_t l = 0; l < current.hidden_sizes().size(); ++l) {
        if (current.hidden_sizes()[l] <= 1) continue;
        for (std::size_t u = 0; u < current.hidden_sizes()[l]; ++u) {
          // Saliency lookup, not a Matrix element walk; the rule's
          // two-index heuristic cannot tell them apart.
          const double s = current.hidden_unit_saliency(l, u);  // dsml-lint: allow(matrix-elem-in-loop)
          if (s < best_sal) {
            best_sal = s;
            best_layer = l;
            best_unit = u;
            found = true;
          }
        }
      }
      if (found) {
        Mlp trial = current;
        trial.remove_hidden_unit(best_layer, best_unit);
        RetrainResult r = retrain(std::move(trial), xl, yl, xv, yv,
                                  retrain_epochs, 0.1, 0.01,
                                  options_.momentum, rng);
        if (r.val_mse <= best.val_mse * tolerance) {
          current = r.net;
          if (r.val_mse < best.val_mse) best = {r.net, r.val_mse};
          unit_failures = 0;
          did_something = true;
        } else {
          ++unit_failures;
        }
      } else {
        unit_failures = 2;
      }
    } else if (!try_unit && input_failures < 2) {
      // Disable the least salient input (keep at least two).
      if (current.enabled_input_count() > 2) {
        std::size_t weakest = 0;
        double weakest_sal = std::numeric_limits<double>::infinity();
        bool found = false;
        for (std::size_t i = 0; i < current.n_inputs(); ++i) {
          if (!current.input_enabled(i)) continue;
          const double s = current.input_saliency(i);
          if (s < weakest_sal) {
            weakest_sal = s;
            weakest = i;
            found = true;
          }
        }
        if (found) {
          Mlp trial = current;
          trial.disable_input(weakest);
          RetrainResult r = retrain(std::move(trial), xl, yl, xv, yv,
                                    retrain_epochs, 0.1, 0.01,
                                    options_.momentum, rng);
          if (r.val_mse <= best.val_mse * tolerance) {
            current = r.net;
            if (r.val_mse < best.val_mse) best = {r.net, r.val_mse};
            input_failures = 0;
            did_something = true;
          } else {
            ++input_failures;
          }
        } else {
          input_failures = 2;
        }
      } else {
        input_failures = 2;
      }
    }
    try_unit = !try_unit;
    if (!did_something && unit_failures >= 2 && input_failures >= 2) break;
  }

  if (exhaustive) {
    // Magnitude weight-pruning pass with a retrain to recover.
    Mlp trial = best.net;
    trial.prune_smallest_weights(0.10);
    RetrainResult r = retrain(std::move(trial), xl, yl, xv, yv,
                              scaled(150), 0.05, 0.005, options_.momentum,
                              rng);
    if (r.val_mse < best.val_mse) best = {r.net, r.val_mse};
  }
  return best;
}

void NeuralRegressor::fit(const data::Dataset& train) {
  DSML_REQUIRE(train.has_target(), "NeuralRegressor::fit: dataset lacks target");
  DSML_REQUIRE(train.n_rows() >= 4,
               "NeuralRegressor::fit: need at least 4 rows");
  trace::Span span(
      [&] { return std::string("NeuralRegressor::fit ") + name(); }, "ml");
  data::EncoderOptions enc;
  enc.mode = data::EncodingMode::kNeuralNetwork;
  enc.scale_inputs = true;
  enc.scale_target = true;
  enc.drop_constant = true;
  enc.add_intercept = false;
  encoder_.fit(train, enc);

  train_x_ = encoder_.encode(train);
  train_y_scaled_ = encoder_.encode_target(train);
  // Degenerate-data guards: with constant columns dropped and no intercept,
  // an empty design means nothing varies; non-finite targets would poison
  // every gradient silently.
  DSML_REQUIRE(train_x_.cols() >= 1,
               "NeuralRegressor::fit: no varying predictors (every feature "
               "column is constant)");
  for (double v : train_y_scaled_) {
    DSML_REQUIRE(std::isfinite(v),
                 "NeuralRegressor::fit: target contains non-finite values");
  }

  Rng rng(options_.seed);

  // Clementine protocol: random halves — one to train, one to "simulate".
  auto [learn_idx, val_idx] = data::split_half(train.n_rows(), rng);
  std::vector<std::size_t> all_idx(train.n_rows());
  for (std::size_t i = 0; i < all_idx.size(); ++i) all_idx[i] = i;
  const linalg::Matrix xl = train_x_.select_rows(learn_idx);
  const linalg::Matrix xv = train_x_.select_rows(val_idx);
  std::vector<double> yl, yv;
  yl.reserve(learn_idx.size());
  yv.reserve(val_idx.size());
  for (std::size_t i : learn_idx) yl.push_back(train_y_scaled_[i]);
  for (std::size_t i : val_idx) yv.push_back(train_y_scaled_[i]);

  Candidate best = [&] {
    switch (options_.method) {
      case NnMethod::kQuick: return run_quick(xl, yl, xv, yv, rng);
      case NnMethod::kSingle: return run_single(xl, yl, xv, yv, rng);
      case NnMethod::kDynamic: return run_dynamic(xl, yl, xv, yv, rng);
      case NnMethod::kMultiple:
        return run_multiple(xl, yl, xv, yv, /*wide_menu=*/false, rng);
      case NnMethod::kPrune: {
        const std::size_t n = xl.cols();
        const std::size_t h = std::min<std::size_t>(2 * n, 64);
        Candidate big = train_candidate({std::max<std::size_t>(4, h)}, xl, yl,
                                        xv, yv, scaled(400), 0.4, 0.02, 80,
                                        rng);
        return run_prune(std::move(big), xl, yl, xv, yv,
                         /*exhaustive=*/false, rng);
      }
      case NnMethod::kExhaustivePrune: {
        Candidate seed = run_multiple(xl, yl, xv, yv, /*wide_menu=*/true, rng);
        return run_prune(std::move(seed), xl, yl, xv, yv,
                         /*exhaustive=*/true, rng);
      }
    }
    DSML_ASSERT(false);
  }();

  // Final pass: fine-tune the winning topology on the full training set with
  // a small learning rate, still snapshotting against the validation half so
  // the fine-tune cannot make the model worse on held-out data.
  RetrainResult finetuned =
      retrain(best.net, train_x_, train_y_scaled_, xv, yv, scaled(120), 0.05,
              0.005, options_.momentum, rng);
  net_ = (finetuned.val_mse <= best.val_mse) ? std::move(finetuned.net)
                                             : std::move(best.net);
}

std::vector<double> NeuralRegressor::predict(
    const data::Dataset& dataset) const {
  DSML_REQUIRE(net_.has_value(), "NeuralRegressor::predict: not fitted");
  const linalg::Matrix x = encoder_.encode(dataset);
  std::vector<double> out = net_->predict(x);
  for (double& v : out) v = encoder_.decode_target(v);
  return out;
}

std::string NeuralRegressor::name() const {
  return to_string(options_.method);
}

const Mlp& NeuralRegressor::network() const {
  DSML_REQUIRE(net_.has_value(), "NeuralRegressor::network: not fitted");
  return *net_;
}

void NeuralRegressor::save(serial::Writer& writer) const {
  DSML_REQUIRE(net_.has_value(), "NeuralRegressor::save: not fitted");
  writer.tag("neural");
  writer.u64(static_cast<std::uint64_t>(options_.method));
  writer.u64(options_.seed);
  writer.u64(options_.max_epochs);
  writer.f64(options_.momentum);
  writer.f64(options_.epoch_scale);
  encoder_.save(writer);
  net_->save(writer);
  save_matrix(writer, train_x_);  // retained for importance()
  writer.f64_vector(train_y_scaled_);
}

NeuralRegressor NeuralRegressor::load(serial::Reader& reader) {
  reader.expect_tag("neural");
  Options opt;
  opt.method = static_cast<NnMethod>(reader.u64());
  opt.seed = reader.u64();
  opt.max_epochs = reader.u64();
  opt.momentum = reader.f64();
  opt.epoch_scale = reader.f64();
  NeuralRegressor model(opt);
  model.encoder_ = data::Encoder::load(reader);
  model.net_ = Mlp::load(reader);
  if (model.encoder_.n_outputs() != model.net_->n_inputs()) {
    throw IoError("NeuralRegressor::load: the encoder's width " +
                  std::to_string(model.encoder_.n_outputs()) +
                  " differs from the network's " +
                  std::to_string(model.net_->n_inputs()) + " inputs");
  }
  model.train_x_ = load_matrix(reader);
  model.train_y_scaled_ = reader.f64_vector();
  return model;
}

std::vector<PredictorImportance> NeuralRegressor::importance() const {
  if (!net_.has_value()) return {};
  // Sensitivity sweep per source predictor: for a sample of training rows,
  // replace the predictor's encoded value(s) by each extreme (numeric
  // min/max, or each categorical level) and measure how far the scaled
  // prediction moves. 0 = no effect, 1 = swings the whole output range.
  const std::size_t n_rows = std::min<std::size_t>(train_x_.rows(), 128);
  const auto& feats = encoder_.features();

  // Group encoded features by source column.
  std::vector<std::size_t> source_cols;
  for (const auto& f : feats) {
    if (std::find(source_cols.begin(), source_cols.end(), f.source_column) ==
        source_cols.end()) {
      source_cols.push_back(f.source_column);
    }
  }

  std::vector<PredictorImportance> out;
  std::vector<double> row(train_x_.cols());
  for (std::size_t sc : source_cols) {
    std::vector<std::size_t> group;
    for (std::size_t j = 0; j < feats.size(); ++j) {
      if (feats[j].source_column == sc) group.push_back(j);
    }
    double total_range = 0.0;
    std::string group_name = feats[group.front()].name;
    if (group.size() > 1) {
      // One-hot group: strip the "=level" suffix for reporting.
      const auto pos = group_name.find('=');
      if (pos != std::string::npos) group_name = group_name.substr(0, pos);
    }
    for (std::size_t r = 0; r < n_rows; ++r) {
      std::copy_n(train_x_.row(r).data(), row.size(), row.data());
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      if (group.size() == 1 && feats[group[0]].one_hot_level < 0) {
        // Numeric-like: sweep scaled min (0) and max (1).
        for (double v : {0.0, 1.0}) {
          row[group[0]] = v;
          const double p = net_->predict(row);
          lo = std::min(lo, p);
          hi = std::max(hi, p);
        }
      } else {
        // One-hot group: activate each level in turn.
        for (std::size_t active : group) {
          for (std::size_t j : group) row[j] = (j == active) ? 1.0 : 0.0;
          const double p = net_->predict(row);
          lo = std::min(lo, p);
          hi = std::max(hi, p);
        }
      }
      total_range += hi - lo;
    }
    PredictorImportance imp;
    imp.name = std::move(group_name);
    imp.importance =
        std::clamp(total_range / static_cast<double>(n_rows), 0.0, 1.0);
    out.push_back(std::move(imp));
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.importance > b.importance;
  });
  return out;
}

}  // namespace dsml::ml
