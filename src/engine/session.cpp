#include "engine/session.hpp"

#include <limits>
#include <utility>

#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace dsml::engine {

namespace {

struct SessionMetrics {
  metrics::Counter& batches = metrics::counter("engine.session.batches");
  metrics::Counter& rows = metrics::counter("engine.session.rows");
  metrics::Counter& degraded = metrics::counter("engine.session.degraded");
  metrics::Histogram& batch_rows =
      metrics::histogram("engine.session.batch_rows");
  metrics::Histogram& batch_us = metrics::histogram("engine.session.batch_us");
};

SessionMetrics& session_metrics() {
  static SessionMetrics m;
  return m;
}

}  // namespace

InferenceSession::InferenceSession(ModelRegistry& registry,
                                   std::string model_name)
    : registry_(registry), model_name_(std::move(model_name)) {
  registry_.get(model_name_);  // fail fast on an unregistered name
}

std::vector<double> InferenceSession::predict(const data::Dataset& rows) {
  BatchOutcome outcome = predict_detailed(rows);
  if (!outcome.ok()) {
    throw NumericalError(
        "InferenceSession: " + std::to_string(outcome.failed_rows.size()) +
        " of " + std::to_string(rows.n_rows()) + " rows failed; row " +
        std::to_string(outcome.failed_rows.front()) + ": " +
        outcome.row_errors.front());
  }
  return std::move(outcome.values);
}

BatchOutcome InferenceSession::predict_detailed(const data::Dataset& rows) {
  const std::shared_ptr<const ModelEntry> entry = registry_.get(model_name_);
  const std::string mismatch = entry->schema.mismatch(rows);
  if (!mismatch.empty()) {
    throw InvalidArgument("InferenceSession: request schema does not match '" +
                          model_name_ + "' (" + mismatch + ")");
  }
  if (rows.n_rows() == 0) return BatchOutcome{};
  DSML_FAIL("engine.session.admit");

  trace::Span span([&] { return "session.predict " + model_name_; },
                   "engine");
  session_metrics().batches.add();
  session_metrics().rows.add(rows.n_rows());
  trace::Stopwatch watch;
  BatchOutcome outcome;
  try {
    DSML_FAIL("engine.session.flush");
    outcome.values = entry->model->predict(rows);
  } catch (const std::exception&) {
    // Degrade: retry every row alone so one poisoned row (or an injected
    // batch failure) costs only itself. Bit-identity holds — per-row
    // prediction matches batched prediction exactly.
    session_metrics().degraded.add();
    outcome = predict_rows(*entry->model, rows);
  }
  session_metrics().batch_rows.observe(static_cast<double>(rows.n_rows()));
  session_metrics().batch_us.observe(watch.seconds() * 1e6);

  std::lock_guard<std::mutex> lock(mutex_);
  stats_.batches += 1;
  stats_.rows += rows.n_rows();
  if (outcome.degraded) stats_.degraded += 1;
  return outcome;
}

BatchOutcome InferenceSession::predict_rows(const ml::Regressor& model,
                                            const data::Dataset& rows) {
  BatchOutcome out;
  out.degraded = true;
  out.values.assign(rows.n_rows(),
                    std::numeric_limits<double>::quiet_NaN());
  std::vector<std::size_t> one(1);
  for (std::size_t r = 0; r < rows.n_rows(); ++r) {
    try {
      DSML_FAIL("engine.session.row");
      one[0] = r;
      out.values[r] = model.predict(rows.select_rows(one)).front();
    } catch (const std::exception& e) {
      out.failed_rows.push_back(r);
      out.row_errors.push_back(e.what());
    }
  }
  return out;
}

SessionStats InferenceSession::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace dsml::engine
