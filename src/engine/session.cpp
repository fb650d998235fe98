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
  metrics::Counter& coalesced = metrics::counter("engine.session.coalesced");
  metrics::Counter& degraded = metrics::counter("engine.session.degraded");
  metrics::Counter& rejected = metrics::counter("engine.session.rejected");
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
                                   std::string model_name,
                                   SessionOptions options)
    : registry_(registry),
      model_name_(std::move(model_name)),
      options_(options) {
  DSML_REQUIRE(options_.max_batch_rows >= 1,
               "InferenceSession: max_batch_rows must be >= 1");
  DSML_REQUIRE(options_.max_queue_rows >= options_.max_batch_rows,
               "InferenceSession: max_queue_rows must cover one batch");
  registry_.get(model_name_);  // fail fast on an unregistered name
}

InferenceSession::~InferenceSession() = default;

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

  Request request;
  request.rows = &rows;
  request.n_rows = rows.n_rows();

  std::unique_lock<std::mutex> lock(mutex_);
  if (queued_rows_ + request.n_rows > options_.max_queue_rows) {
    stats_.rejected += 1;
    session_metrics().rejected.add();
    throw StateError("InferenceSession: queue full (" +
                     std::to_string(queued_rows_) + " rows queued, " +
                     std::to_string(request.n_rows) + " requested, bound " +
                     std::to_string(options_.max_queue_rows) + ")");
  }
  queue_.push_back(&request);
  queued_rows_ += request.n_rows;
  while (!request.done) {
    if (!flushing_) {
      flush_locked(lock);
    } else {
      cv_.wait(lock);
    }
  }
  if (!request.error.empty()) {
    throw StateError("InferenceSession: batch failed: " + request.error);
  }
  return std::move(request.outcome);
}

void InferenceSession::flush_locked(std::unique_lock<std::mutex>& lock) {
  // Drain whole requests in admission order until the row budget is spent.
  // The drained set is the *batch*; the caller's own request may or may not
  // make the cut — the predict loop simply leads another flush if not.
  flushing_ = true;
  std::vector<Request*> batch;
  std::size_t batch_rows = 0;
  std::size_t taken = 0;
  for (Request* r : queue_) {
    if (!batch.empty() &&
        batch_rows + r->n_rows > options_.max_batch_rows) {
      break;
    }
    batch.push_back(r);
    batch_rows += r->n_rows;
    ++taken;
  }
  queue_.erase(queue_.begin(),
               queue_.begin() + static_cast<std::ptrdiff_t>(taken));
  queued_rows_ -= batch_rows;
  stats_.batches += 1;
  stats_.rows += batch_rows;
  if (batch.size() > 1) stats_.coalesced += batch.size();

  lock.unlock();
  // Everything outside the lock is exception-contained: a throw anywhere in
  // here must still relock, mark the batch done, and wake the followers, or
  // they would wait forever.
  std::string batch_error;
  bool degraded = false;
  try {
    trace::Span span([&] { return "session.flush " + model_name_; },
                     "engine");
    session_metrics().batches.add();
    session_metrics().rows.add(batch_rows);
    if (batch.size() > 1) session_metrics().coalesced.add(batch.size());
    const std::shared_ptr<const ModelEntry> entry =
        registry_.get(model_name_);
    trace::Stopwatch watch;
    BatchOutcome combined;
    try {
      DSML_FAIL("engine.session.flush");
      if (batch.size() == 1) {
        combined.values = entry->model->predict(*batch.front()->rows);
      } else {
        data::Dataset assembled = *batch.front()->rows;
        for (std::size_t i = 1; i < batch.size(); ++i) {
          assembled.append(*batch[i]->rows);
        }
        combined.values = entry->model->predict(assembled);
      }
    } catch (const std::exception&) {
      if (!options_.retry_rows_on_batch_failure) throw;
      // Degrade: retry every row alone so one poisoned row (or an injected
      // batch failure) costs only itself. Bit-identity holds — per-row
      // prediction matches batched prediction exactly.
      degraded = true;
      session_metrics().degraded.add();
      combined = BatchOutcome{};
      combined.degraded = true;
      std::size_t offset = 0;
      for (Request* r : batch) {
        const BatchOutcome part = predict_rows(*entry->model, *r->rows);
        combined.values.insert(combined.values.end(), part.values.begin(),
                               part.values.end());
        for (std::size_t k = 0; k < part.failed_rows.size(); ++k) {
          combined.failed_rows.push_back(part.failed_rows[k] + offset);
          combined.row_errors.push_back(part.row_errors[k]);
        }
        offset += r->n_rows;
      }
    }
    session_metrics().batch_rows.observe(static_cast<double>(batch_rows));
    session_metrics().batch_us.observe(watch.seconds() * 1e6);
    // Split the combined outcome back per request, in admission order.
    std::size_t offset = 0;
    std::size_t fail_idx = 0;
    for (Request* r : batch) {
      BatchOutcome part;
      part.degraded = combined.degraded;
      part.values.assign(
          combined.values.begin() + static_cast<std::ptrdiff_t>(offset),
          combined.values.begin() +
              static_cast<std::ptrdiff_t>(offset + r->n_rows));
      while (fail_idx < combined.failed_rows.size() &&
             combined.failed_rows[fail_idx] < offset + r->n_rows) {
        part.failed_rows.push_back(combined.failed_rows[fail_idx] - offset);
        part.row_errors.push_back(combined.row_errors[fail_idx]);
        ++fail_idx;
      }
      r->outcome = std::move(part);
      offset += r->n_rows;
    }
  } catch (const std::exception& e) {
    batch_error = e.what();
  }

  lock.lock();
  if (degraded) stats_.degraded += 1;
  for (Request* r : batch) {
    if (!batch_error.empty()) r->error = batch_error;
    r->done = true;
  }
  flushing_ = false;
  cv_.notify_all();
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
