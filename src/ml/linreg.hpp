// Multiple linear regression with the four SPSS/Clementine predictor-
// selection methods the paper evaluates (§3.1):
//
//   LR-E  Enter     — all predictors in one step;
//   LR-F  Forwards  — start empty, repeatedly add the most significant
//                     predictor while its partial-F p-value < entry_p;
//   LR-B  Backwards — start full, repeatedly remove the least significant
//                     predictor while its p-value > removal_p;
//   LR-S  Stepwise  — forward steps interleaved with backward removal
//                     checks until the model is stable.
//
// Fitting is least squares via Householder QR; inference statistics
// (coefficient standard errors, t statistics, partial-F p-values,
// standardized betas) come from the classical OLS theory in Montgomery,
// Peck & Vining, the paper's reference [7].
#pragma once

#include <optional>

#include "data/encoder.hpp"
#include "linalg/decompose.hpp"
#include "ml/model.hpp"

namespace dsml::ml {

enum class LinRegMethod { kEnter, kStepwise, kForward, kBackward };

const char* to_string(LinRegMethod method) noexcept;

/// One fitted ordinary-least-squares model over a subset of design-matrix
/// columns (column 0 is always the intercept).
struct OlsFit {
  std::vector<std::size_t> columns;   ///< design-matrix columns in the model
  linalg::Vector beta;                ///< coefficient per entry of `columns`
  std::vector<double> std_errors;     ///< coefficient standard errors
  std::vector<double> t_stats;        ///< beta / std_error
  std::vector<double> p_values;       ///< two-sided t-test p-values
  double sigma2 = 0.0;                ///< residual variance estimate
  double ss_res = 0.0;                ///< residual sum of squares
  double ss_tot = 0.0;                ///< total sum of squares about the mean
  double r2 = 0.0;
  double adjusted_r2 = 0.0;
  std::size_t n = 0;                  ///< observations
  std::size_t dof = 0;                ///< residual degrees of freedom
  /// Diagnostic only (not serialized): true when the QR solve failed and the
  /// coefficients came from the ridge-regularised fallback; inference
  /// statistics are zeroed in that case, like any rank-deficient fit.
  bool ridge_fallback = false;
};

/// Fit OLS on the given columns of X (X must contain an intercept column that
/// is included in `columns` if desired). Requires n > |columns|.
OlsFit fit_ols(const linalg::Matrix& x, std::span<const double> y,
               std::span<const std::size_t> columns);

class LinearRegression final : public Regressor {
 public:
  struct Options {
    LinRegMethod method = LinRegMethod::kBackward;
    /// SPSS defaults: probability-of-F to enter 0.05, to remove 0.10.
    double entry_p = 0.05;
    double removal_p = 0.10;
    /// Upper bound on selected predictors (guards tiny samples); 0 = n-2.
    std::size_t max_predictors = 0;
  };

  LinearRegression();
  explicit LinearRegression(Options options);

  void fit(const data::Dataset& train) override;
  std::vector<double> predict(const data::Dataset& dataset) const override;
  std::string name() const override;
  std::vector<PredictorImportance> importance() const override;
  bool fitted() const noexcept override { return fit_.has_value(); }

  /// Names of predictors retained by the selection method (no intercept).
  std::vector<std::string> selected_predictors() const;

  /// Full fit statistics.
  const OlsFit& ols() const;

  /// Standardized beta (|beta_j| * sd(x_j) / sd(y)) per selected predictor —
  /// the relative-importance number §4.4 quotes for linear models.
  std::vector<PredictorImportance> standardized_betas() const;

  const Options& options() const noexcept { return options_; }

  /// Persist / restore a fitted model (see ml/serialize.hpp for the
  /// file-level facade).
  void save(serial::Writer& writer) const;
  static LinearRegression load(serial::Reader& reader);

 private:
  std::vector<std::size_t> select_columns(const linalg::Matrix& x,
                                          std::span<const double> y) const;

  Options options_;
  data::Encoder encoder_;
  std::optional<OlsFit> fit_;
  std::vector<std::string> feature_names_;  // encoder outputs incl. intercept
  std::vector<double> train_x_sd_;          // per design column
  double train_y_sd_ = 0.0;
};

}  // namespace dsml::ml
