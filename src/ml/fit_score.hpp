// The one fit→estimate→score evaluation cell shared by every training path.
//
// Before the engine layer, `run_sampled_dse`, `run_chronological`, and
// `SelectModel::fit` each hand-rolled the same loop: optionally estimate a
// candidate's predictive error by cross-validation (paper §3.3), fit it on
// the full training sample, time the fit, score a held-out dataset, and
// convert any exception into a FailureRecord so one bad cell degrades
// instead of killing the experiment. fit_and_score() is that loop, written
// once: callers describe the cell with a FitScoreRequest and decide which
// stages run; failure capture, failpoint injection, tracing, and metrics are
// uniform across all of them.
//
// The cell lives in the ml layer (src/ml, dsml_ml) so SelectModel::fit and
// the dse drivers can call it without an upward dependency on the engine
// layer; the engine proper (registry, sessions, serving) builds on top of
// the same result type and keeps the dsml::engine namespace it introduced.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "ml/model.hpp"
#include "ml/validation.hpp"

namespace dsml::engine {

/// Describes one evaluation cell. Datasets are borrowed (never copied) and
/// must outlive the call.
struct FitScoreRequest {
  /// The candidate under evaluation (name + fresh-instance factory).
  ml::NamedModel model;

  /// Training sample; required.
  const data::Dataset* train = nullptr;

  /// Run ml::estimate_error (repeated 50/50 cross-validation) beside the
  /// fit.
  bool estimate = false;
  ml::ValidationOptions validation;

  /// Fit a fresh instance on the full training sample.
  bool fit = true;

  /// After a successful fit, predict these rows (e.g. the full design space
  /// or the held-out year). Ignored when null or when `fit` is false.
  const data::Dataset* score = nullptr;

  /// Optional fault-injection site fired at the top of the cell, so callers
  /// keep their historical failpoint names ("dse.sampled.eval",
  /// "select.candidate", ...) through the refactor.
  const char* failpoint = nullptr;
};

/// What one cell produced. `failure` captures the exception of the first
/// stage, in stage order (estimate, fit, score), that threw. The estimate
/// runs beside the fit, so when it is set the other outputs are whatever
/// the stages completed (the fitted model and predictions are always cleared
/// so a failed cell cannot leak a half-trained artifact).
struct FitScoreResult {
  std::string name;                      ///< request.model.name
  std::unique_ptr<ml::Regressor> model;  ///< fitted instance (fit stage ok)
  ml::ErrorEstimate estimate;            ///< estimate stage output
  std::vector<double> predictions;       ///< score-stage predictions
  double fit_seconds = 0.0;              ///< wall-clock of the fit stage
  std::optional<FailureRecord> failure;  ///< set when the cell threw

  bool ok() const noexcept { return !failure.has_value(); }
};

/// Runs one cell. Never throws for cell-level failures — exceptions from the
/// estimate/fit/score stages (and the injected failpoint) become
/// `result.failure` with the taxonomy type from error_kind(). Contract
/// violations (null `train`) still throw InvalidArgument.
FitScoreResult fit_and_score(const FitScoreRequest& request);

}  // namespace dsml::engine
