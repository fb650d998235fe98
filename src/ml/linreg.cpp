#include "ml/linreg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/retry.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "linalg/kernels.hpp"

namespace dsml::ml {

const char* to_string(LinRegMethod method) noexcept {
  switch (method) {
    case LinRegMethod::kEnter: return "LR-E";
    case LinRegMethod::kStepwise: return "LR-S";
    case LinRegMethod::kForward: return "LR-F";
    case LinRegMethod::kBackward: return "LR-B";
  }
  return "LR-?";
}

OlsFit fit_ols(const linalg::Matrix& x, std::span<const double> y,
               std::span<const std::size_t> columns) {
  DSML_REQUIRE(!columns.empty(), "fit_ols: no columns selected");
  DSML_REQUIRE(x.rows() == y.size(), "fit_ols: row count mismatch");
  DSML_REQUIRE(x.rows() > columns.size(),
               "fit_ols: need more observations than coefficients");

  const linalg::Matrix xs = x.select_columns(columns);
  OlsFit fit;
  fit.columns.assign(columns.begin(), columns.end());
  fit.n = x.rows();
  fit.dof = fit.n - columns.size();

  // Attempt 0 is the historical Householder QR path, untouched — a clean
  // solve is bit-identical to the pre-retry implementation. If it throws
  // NumericalError (singular to working precision) or produces non-finite
  // coefficients, attempts 1..2 fall back to ridge-regularised normal
  // equations (X^T X + lambda I) with an escalating penalty before giving
  // up. The ridge path zeroes inference statistics like any rank-deficient
  // fit; OlsFit::ridge_fallback records that it happened.
  static constexpr double kRidge[] = {0.0, 1e-8, 1e-4};
  std::optional<linalg::QR> qr;
  std::optional<linalg::Cholesky> ridge_chol;
  retry(
      3, [](std::size_t) { /* no RNG involved in an OLS solve */ },
      [&](std::size_t attempt) {
        if (attempt == 0) {
          DSML_FAIL("linreg.solve");
          qr.emplace(xs);
          fit.beta = qr->solve(y);
        } else {
          qr.reset();
          fit.ridge_fallback = true;
          static metrics::Counter& ridge_solves =
              metrics::counter("ml.linreg_ridge_solves");
          ridge_solves.add();
          linalg::Matrix xtx = xs.transposed().multiply(xs);
          // Scale the penalty by the largest Gram diagonal so lambda means
          // the same thing for standardized and raw designs.
          double max_diag = 0.0;
          for (std::size_t j = 0; j < xtx.cols(); ++j) {
            max_diag = std::max(
                max_diag, xtx(j, j));  // dsml-lint: allow(matrix-elem-in-loop)
          }
          const double lambda =
              kRidge[attempt] * (max_diag > 0.0 ? max_diag : 1.0);
          for (std::size_t j = 0; j < xtx.cols(); ++j) {
            xtx(j, j) += lambda;  // dsml-lint: allow(matrix-elem-in-loop)
          }
          const linalg::Vector xty = xs.multiply_transposed(y);
          ridge_chol.emplace(xtx);
          fit.beta = ridge_chol->solve(xty);
        }
        for (double b : fit.beta) {
          if (!std::isfinite(b)) {
            throw NumericalError("fit_ols: non-finite coefficients");
          }
        }
      });

  // Residuals and sums of squares.
  const linalg::Vector yhat = xs.multiply(fit.beta);
  const double ymean = stats::mean(y);
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double r = y[i] - yhat[i];
    fit.ss_res += r * r;
    fit.ss_tot += (y[i] - ymean) * (y[i] - ymean);
  }
  fit.sigma2 = fit.dof > 0 ? fit.ss_res / static_cast<double>(fit.dof) : 0.0;
  fit.r2 = fit.ss_tot > 0.0 ? 1.0 - fit.ss_res / fit.ss_tot
                            : (fit.ss_res == 0.0 ? 1.0 : 0.0);
  const auto p = static_cast<double>(columns.size() - 1);  // sans intercept
  const auto n = static_cast<double>(fit.n);
  fit.adjusted_r2 =
      fit.dof > 1 ? 1.0 - (1.0 - fit.r2) * (n - 1.0) / (n - p - 1.0) : fit.r2;

  // Coefficient covariance = sigma2 * (X^T X)^-1 via the R factor.
  fit.std_errors.assign(columns.size(), 0.0);
  fit.t_stats.assign(columns.size(), 0.0);
  fit.p_values.assign(columns.size(), 1.0);
  // The ridge fallback's penalties are tiny relative to the Gram diagonal,
  // so inverting the regularised Gram matrix is an accurate (X^T X)^-1
  // surrogate — without it every fallback p-value would be 1.0 and the
  // stepwise procedures would strip the model down to its intercept.
  std::optional<linalg::Matrix> cov;
  if (qr.has_value() && !qr->rank_deficient() && fit.dof > 0) {
    cov = linalg::xtx_inverse_from_qr(*qr);
  } else if (ridge_chol.has_value() && fit.dof > 0) {
    cov = ridge_chol->inverse();
  }
  if (cov.has_value()) {
    const linalg::Matrix& cov_kernel = *cov;
    for (std::size_t j = 0; j < columns.size(); ++j) {
      // Diagonal-only read, once per fit.
      const double var =
          fit.sigma2 * cov_kernel(j, j);  // dsml-lint: allow(matrix-elem-in-loop)
      fit.std_errors[j] = var > 0.0 ? std::sqrt(var) : 0.0;
      if (fit.std_errors[j] > 0.0) {
        fit.t_stats[j] = fit.beta[j] / fit.std_errors[j];
        fit.p_values[j] = stats::t_test_p_value(
            fit.t_stats[j], static_cast<double>(fit.dof));
      } else {
        // Perfect fit along this direction: infinitely significant.
        fit.t_stats[j] = fit.beta[j] == 0.0
                             ? 0.0
                             : std::numeric_limits<double>::infinity();
        fit.p_values[j] = fit.beta[j] == 0.0 ? 1.0 : 0.0;
      }
    }
  }
  return fit;
}

LinearRegression::LinearRegression() : LinearRegression(Options{}) {}

LinearRegression::LinearRegression(Options options)
    : options_(options) {
  DSML_REQUIRE(options_.entry_p > 0.0 && options_.entry_p < 1.0,
               "LinearRegression: entry_p outside (0,1)");
  DSML_REQUIRE(options_.removal_p >= options_.entry_p &&
                   options_.removal_p < 1.0,
               "LinearRegression: removal_p must be in [entry_p, 1)");
}

void LinearRegression::fit(const data::Dataset& train) {
  DSML_REQUIRE(train.has_target(), "LinearRegression::fit: dataset lacks target");
  trace::Span span("LinearRegression::fit", "ml");
  static metrics::Counter& fits = metrics::counter("ml.linreg_fits");
  fits.add();
  data::EncoderOptions enc;
  enc.mode = data::EncodingMode::kLinearRegression;
  enc.scale_inputs = true;
  enc.scale_target = false;
  enc.drop_constant = true;
  enc.add_intercept = true;
  encoder_.fit(train, enc);
  feature_names_ = encoder_.feature_names();

  const linalg::Matrix x = encoder_.encode(train);
  const std::vector<double> y = encoder_.encode_target(train);
  // Degenerate-data guards: the encoder drops constant columns, so a design
  // with only the intercept left means no predictor varies at all, and a
  // non-finite target would silently poison every sum of squares.
  DSML_REQUIRE(x.cols() >= 2,
               "LinearRegression::fit: no varying predictors (every feature "
               "column is constant)");
  for (double v : y) {
    DSML_REQUIRE(std::isfinite(v),
                 "LinearRegression::fit: target contains non-finite values");
  }

  // Per-column standard deviations for standardized betas. One row-major
  // sweep with row spans rather than a per-column x(i, j) walk; each column's
  // accumulator still sees its values in ascending-row order, so the
  // resulting stddevs are bit-identical to the column-at-a-time version.
  {
    std::vector<stats::RunningStats> per_col(x.cols());
    for (std::size_t i = 0; i < x.rows(); ++i) {
      const auto row = x.row(i);
      for (std::size_t j = 0; j < x.cols(); ++j) per_col[j].add(row[j]);
    }
    train_x_sd_.assign(x.cols(), 0.0);
    for (std::size_t j = 0; j < x.cols(); ++j) {
      train_x_sd_[j] = per_col[j].stddev();
    }
  }
  {
    stats::RunningStats rs;
    for (double v : y) rs.add(v);
    train_y_sd_ = rs.stddev();
  }

  const std::vector<std::size_t> columns = select_columns(x, y);
  fit_ = fit_ols(x, y, columns);
}

std::vector<std::size_t> LinearRegression::select_columns(
    const linalg::Matrix& x, std::span<const double> y) const {
  const std::size_t n_cols = x.cols();
  const std::size_t n = x.rows();
  DSML_REQUIRE(n >= 3, "LinearRegression: need at least 3 observations");

  // Hard cap so the design stays overdetermined even on tiny samples.
  std::size_t max_predictors = options_.max_predictors > 0
                                   ? options_.max_predictors
                                   : (n >= 3 ? n - 2 : 1);
  max_predictors = std::min(max_predictors, n_cols - 1);

  std::vector<std::size_t> in_model = {0};  // intercept

  // Universe of usable predictors: a greedy maximal linearly-independent
  // subset. SPEC announcements routinely carry exactly collinear fields
  // (total_cores = total_chips x cores_per_chip, duplicated cache
  // descriptions); admitting them makes Enter's fit numerically meaningless
  // and Backward's p-value ordering arbitrary, so they are excluded up
  // front — the same effect as SPSS's tolerance check.
  std::vector<std::size_t> universe;
  {
    std::vector<std::size_t> picked = {0};
    for (std::size_t j = 1; j < n_cols; ++j) {
      picked.push_back(j);
      if (picked.size() >= n) {
        picked.pop_back();
        break;
      }
      const linalg::QR qr(x.select_columns(picked));
      if (qr.rank_deficient()) {
        picked.pop_back();
      } else {
        universe.push_back(j);
      }
    }
  }

  auto candidate_columns = [&](const std::vector<std::size_t>& current) {
    std::vector<std::size_t> out;
    for (std::size_t j : universe) {
      if (std::find(current.begin(), current.end(), j) == current.end()) {
        out.push_back(j);
      }
    }
    return out;
  };

  // One forward step: add the candidate with the smallest p-value if it
  // clears the entry threshold. Returns true if a predictor was added.
  auto forward_step = [&]() {
    if (in_model.size() - 1 >= max_predictors) return false;
    double best_p = options_.entry_p;
    std::size_t best_col = n_cols;  // sentinel
    for (std::size_t j : candidate_columns(in_model)) {
      std::vector<std::size_t> trial = in_model;
      trial.push_back(j);
      if (trial.size() >= n) continue;  // would exhaust dof
      OlsFit f;
      try {
        f = fit_ols(x, y, trial);
      } catch (const NumericalError&) {
        continue;
      }
      const double p = f.p_values.back();
      if (p < best_p) {
        best_p = p;
        best_col = j;
      }
    }
    if (best_col == n_cols) return false;
    in_model.push_back(best_col);
    return true;
  };

  // One backward step: remove the worst predictor if it misses the removal
  // threshold. Returns true if a predictor was removed.
  auto backward_step = [&]() {
    if (in_model.size() <= 1) return false;
    const OlsFit f = fit_ols(x, y, in_model);
    double worst_p = options_.removal_p;
    std::size_t worst_pos = 0;  // position in in_model; 0 = intercept = never
    for (std::size_t k = 1; k < in_model.size(); ++k) {
      if (f.p_values[k] > worst_p) {
        worst_p = f.p_values[k];
        worst_pos = k;
      }
    }
    if (worst_pos == 0) return false;
    in_model.erase(in_model.begin() +
                   static_cast<std::ptrdiff_t>(worst_pos));
    return true;
  };

  switch (options_.method) {
    case LinRegMethod::kEnter: {
      // All (independent) predictors at once, capped to keep the system
      // overdetermined.
      for (std::size_t j : universe) {
        if (in_model.size() - 1 >= max_predictors) break;
        in_model.push_back(j);
      }
      break;
    }
    case LinRegMethod::kForward: {
      while (forward_step()) {
      }
      break;
    }
    case LinRegMethod::kBackward: {
      for (std::size_t j : universe) {
        if (in_model.size() - 1 >= max_predictors) break;
        in_model.push_back(j);
      }
      while (backward_step()) {
      }
      break;
    }
    case LinRegMethod::kStepwise: {
      bool changed = true;
      while (changed) {
        changed = forward_step();
        while (backward_step()) {
          changed = true;
        }
      }
      break;
    }
  }
  std::sort(in_model.begin(), in_model.end());
  return in_model;
}

std::vector<double> LinearRegression::predict(
    const data::Dataset& dataset) const {
  DSML_REQUIRE(fit_.has_value(), "LinearRegression::predict: not fitted");
  const linalg::Matrix x = encoder_.encode(dataset);
  // Shape-aware kernel choice: the fused gather GEMV beats materialising
  // the column subset at every sparse selection — the copy is a full extra
  // pass over data read exactly once — but when the stepwise fit kept a
  // *prefix* of the design (every column 0..k-1) the gather indirection is
  // pure overhead and the dense GEMV reads the design matrix in place. Both
  // kernels accumulate each row in ascending column order, so the choice is
  // invisible: results are bit-identical either way, and to the copying
  // pipeline (Backend.LinearRegressionPredictBackendInvariant runs both
  // branches). Chunked over the pool for full-design-space batches.
  std::vector<double> out(x.rows());
  bool prefix_selection = true;
  for (std::size_t k = 0; k < fit_->columns.size() && prefix_selection; ++k) {
    prefix_selection = fit_->columns[k] == k;
  }
  constexpr std::size_t kChunk = 512;
  parallel_for_chunks(
      0, x.rows(), kChunk, [&](std::size_t b, std::size_t e) {
        if (prefix_selection) {
          linalg::kernels::gemv(x.row(b).data(), x.cols(), e - b,
                                fit_->columns.size(), fit_->beta.data(),
                                out.data() + b);
        } else {
          linalg::kernels::gemv_columns(
              x.row(b).data(), x.cols(), e - b, fit_->columns.data(),
              fit_->columns.size(), fit_->beta.data(), out.data() + b);
        }
      });
  return out;
}

std::string LinearRegression::name() const {
  return to_string(options_.method);
}

const OlsFit& LinearRegression::ols() const {
  DSML_REQUIRE(fit_.has_value(), "LinearRegression::ols: not fitted");
  return *fit_;
}

std::vector<std::string> LinearRegression::selected_predictors() const {
  DSML_REQUIRE(fit_.has_value(),
               "LinearRegression::selected_predictors: not fitted");
  std::vector<std::string> names;
  for (std::size_t col : fit_->columns) {
    if (col == 0) continue;  // intercept
    names.push_back(feature_names_[col]);
  }
  return names;
}

std::vector<PredictorImportance> LinearRegression::standardized_betas() const {
  DSML_REQUIRE(fit_.has_value(),
               "LinearRegression::standardized_betas: not fitted");
  std::vector<PredictorImportance> out;
  if (train_y_sd_ <= 0.0) return out;
  for (std::size_t k = 0; k < fit_->columns.size(); ++k) {
    const std::size_t col = fit_->columns[k];
    if (col == 0) continue;
    PredictorImportance imp;
    imp.name = feature_names_[col];
    imp.importance =
        std::abs(fit_->beta[k]) * train_x_sd_[col] / train_y_sd_;
    out.push_back(std::move(imp));
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.importance > b.importance;
  });
  return out;
}

void LinearRegression::save(serial::Writer& writer) const {
  DSML_REQUIRE(fit_.has_value(), "LinearRegression::save: not fitted");
  writer.tag("linreg");
  writer.u64(static_cast<std::uint64_t>(options_.method));
  writer.f64(options_.entry_p);
  writer.f64(options_.removal_p);
  writer.u64(options_.max_predictors);
  encoder_.save(writer);
  writer.u64(feature_names_.size());
  for (const auto& name : feature_names_) writer.str(name);
  writer.f64_vector(train_x_sd_);
  writer.f64(train_y_sd_);
  const OlsFit& f = *fit_;
  writer.u64_vector(
      std::vector<std::uint64_t>(f.columns.begin(), f.columns.end()));
  writer.f64_vector(f.beta);
  writer.f64_vector(f.std_errors);
  writer.f64_vector(f.t_stats);
  writer.f64_vector(f.p_values);
  writer.f64(f.sigma2);
  writer.f64(f.ss_res);
  writer.f64(f.ss_tot);
  writer.f64(f.r2);
  writer.f64(f.adjusted_r2);
  writer.u64(f.n);
  writer.u64(f.dof);
}

LinearRegression LinearRegression::load(serial::Reader& reader) {
  reader.expect_tag("linreg");
  Options opt;
  opt.method = static_cast<LinRegMethod>(reader.u64());
  opt.entry_p = reader.f64();
  opt.removal_p = reader.f64();
  opt.max_predictors = reader.u64();
  LinearRegression model(opt);
  model.encoder_ = data::Encoder::load(reader);
  const std::uint64_t n_names = reader.u64();
  for (std::uint64_t i = 0; i < n_names; ++i) {
    model.feature_names_.push_back(reader.str());
  }
  model.train_x_sd_ = reader.f64_vector();
  model.train_y_sd_ = reader.f64();
  OlsFit f;
  for (std::uint64_t c : reader.u64_vector()) {
    f.columns.push_back(static_cast<std::size_t>(c));
  }
  f.beta = reader.f64_vector();
  f.std_errors = reader.f64_vector();
  f.t_stats = reader.f64_vector();
  f.p_values = reader.f64_vector();
  f.sigma2 = reader.f64();
  f.ss_res = reader.f64();
  f.ss_tot = reader.f64();
  f.r2 = reader.f64();
  f.adjusted_r2 = reader.f64();
  f.n = reader.u64();
  f.dof = reader.u64();
  DSML_REQUIRE(f.columns.size() == f.beta.size(),
               "LinearRegression::load: inconsistent fit");
  model.fit_ = std::move(f);
  return model;
}

std::vector<PredictorImportance> LinearRegression::importance() const {
  if (!fit_.has_value()) return {};
  return standardized_betas();
}

}  // namespace dsml::ml
