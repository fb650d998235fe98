// Inference sessions: a model name in a registry, answered on the caller's
// thread.
//
// A request is predicted in one Regressor::predict call over all of its
// rows, so the batched kernels from the performance layer (Mlp::predict's
// forward_block, LinearRegression's fused gemv_columns) amortize encoding
// and matrix traversal over the request. Nothing is queued or shared
// between requests: concurrent callers predict side by side on the const
// model, and only the stats counters sit behind a mutex.
//
// Determinism contract (pinned by tests/test_engine.cpp): every model's
// per-row prediction is independent of its batch neighbours — encoding is
// row-local and the batched kernels are bit-identical to their per-row
// references — so session results are **bit-identical** to calling
// Regressor::predict directly, whatever slice of rows a request carries.
//
// Failure behaviour: a request whose predict throws degrades to per-row
// retry, so one poisoned row fails alone instead of failing its neighbours
// (`engine.session.degraded` counts it; the `engine.session.flush` /
// `engine.session.row` failpoints inject both stages, and
// `engine.session.admit` fails a request before it predicts).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "engine/registry.hpp"

namespace dsml::engine {

/// Per-request outcome with row granularity, for callers (the serve loop)
/// that must report partial failures instead of throwing.
struct BatchOutcome {
  std::vector<double> values;  ///< per row; NaN where the row failed
  std::vector<std::size_t> failed_rows;   ///< indices of failed rows
  std::vector<std::string> row_errors;    ///< parallel to failed_rows
  bool degraded = false;  ///< the request fell back to per-row retry

  bool ok() const noexcept { return failed_rows.empty(); }
};

struct SessionStats {
  std::uint64_t batches = 0;       ///< requests predicted (one batch each)
  std::uint64_t rows = 0;          ///< rows predicted
  std::uint64_t degraded = 0;      ///< batches that fell back to per-row
};

class InferenceSession {
 public:
  /// Binds to `model_name` in `registry`. The name is resolved per request
  /// (by the session, or by a caller that passes its entry), so a model
  /// re-registered mid-session answers the next request.
  /// Throws StateError if the name is not registered at construction.
  InferenceSession(ModelRegistry& registry, std::string model_name);

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// `rows` must match the registered schema (checked by fingerprint;
  /// throws InvalidArgument on mismatch). Throws the first row failure if
  /// any row could not be predicted.
  std::vector<double> predict(const data::Dataset& rows);

  /// Like predict(), but reports row failures in the outcome instead of
  /// throwing (schema and admission errors still throw).
  BatchOutcome predict_detailed(const data::Dataset& rows);

  /// predict_detailed(rows) with `entry`, an entry of this session's model
  /// the caller has already resolved: no registry lookup, so the caller's
  /// version and the predictions come from the same entry.
  BatchOutcome predict_detailed(const ModelEntry& entry,
                                const data::Dataset& rows);

  const std::string& model_name() const noexcept { return model_name_; }

  SessionStats stats() const;

 private:
  static BatchOutcome predict_rows(const ml::Regressor& model,
                                   const data::Dataset& rows);

  ModelRegistry& registry_;
  std::string model_name_;

  mutable std::mutex mutex_;
  SessionStats stats_;
};

}  // namespace dsml::engine
