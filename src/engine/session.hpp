// Micro-batching inference sessions.
//
// Individual predict requests are cheap to issue but expensive to serve one
// by one: the batched kernels from the performance layer (Mlp::predict's
// forward_block, LinearRegression's fused gemv_columns) amortize encoding
// and matrix traversal over rows, so the engine coalesces concurrent
// requests into one Dataset batch before touching the model.
//
// Mechanics (leader/follower): a request appends itself to a bounded queue
// under the session mutex. If no flush is running, the requester becomes the
// *leader*: it drains the queue in admission order (up to max_batch_rows),
// releases the lock, assembles one Dataset via row-wise concatenation, runs
// a single Regressor::predict over it, splits the results back per request,
// and wakes the followers. Requests that arrive while a flush is running
// wait; the first to wake afterwards leads the next batch, naturally
// coalescing whatever queued up in the meantime.
//
// Determinism contract (pinned by tests/test_engine.cpp): every model's
// per-row prediction is independent of its batch neighbours — encoding is
// row-local and the batched kernels are bit-identical to their per-row
// references — so session results are **bit-identical** to calling
// Regressor::predict directly, whatever batch composition concurrency
// produced.
//
// Failure behaviour: a batch whose predict throws degrades to per-row
// retry, so one poisoned row fails alone instead of failing its batch
// neighbours (`engine.session.degraded` counts it; the `engine.session.
// flush` / `engine.session.row` failpoints inject both stages). Admission
// past the queue bound is rejected with StateError (`engine.session.admit`
// injects it).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/registry.hpp"

namespace dsml::engine {

struct SessionOptions {
  /// Row budget of one assembled batch; a flush drains whole requests until
  /// adding the next would exceed it (a single over-budget request still
  /// flushes alone — requests are never split).
  std::size_t max_batch_rows = 512;

  /// Rows admitted but not yet flushed; admission beyond this throws
  /// StateError (backpressure surfaces as an error, not an unbounded queue).
  std::size_t max_queue_rows = 4096;

  /// Degrade a failed batch to per-row retry instead of failing every
  /// request in it.
  bool retry_rows_on_batch_failure = true;
};

/// Per-request outcome with row granularity, for callers (the serve loop)
/// that must report partial failures instead of throwing.
struct BatchOutcome {
  std::vector<double> values;  ///< per row; NaN where the row failed
  std::vector<std::size_t> failed_rows;   ///< indices of failed rows
  std::vector<std::string> row_errors;    ///< parallel to failed_rows
  bool degraded = false;  ///< the enclosing batch fell back to per-row

  bool ok() const noexcept { return failed_rows.empty(); }
};

struct SessionStats {
  std::uint64_t batches = 0;       ///< flushes executed
  std::uint64_t rows = 0;          ///< rows predicted
  std::uint64_t coalesced = 0;     ///< requests that shared a flush
  std::uint64_t degraded = 0;      ///< batches that fell back to per-row
  std::uint64_t rejected = 0;      ///< admissions refused (queue full)
};

class InferenceSession {
 public:
  /// Binds to `model_name` in `registry`. The name is resolved per flush,
  /// so a model re-registered mid-session is picked up by the next batch.
  /// Throws StateError if the name is not registered at construction.
  InferenceSession(ModelRegistry& registry, std::string model_name,
                   SessionOptions options = {});

  ~InferenceSession();

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Blocking predict. `rows` must match the registered schema (checked by
  /// fingerprint; throws InvalidArgument on mismatch). May coalesce with
  /// concurrent requests; results are bit-identical either way. Throws the
  /// first row failure if any row could not be predicted.
  std::vector<double> predict(const data::Dataset& rows);

  /// Like predict(), but reports row failures in the outcome instead of
  /// throwing (batch assembly/admission errors still throw).
  BatchOutcome predict_detailed(const data::Dataset& rows);

  const std::string& model_name() const noexcept { return model_name_; }

  SessionStats stats() const;

 private:
  struct Request {
    const data::Dataset* rows = nullptr;
    std::size_t n_rows = 0;
    BatchOutcome outcome;
    std::string error;       ///< request-level failure (empty = none)
    bool done = false;
  };

  void flush_locked(std::unique_lock<std::mutex>& lock);
  static BatchOutcome predict_rows(const ml::Regressor& model,
                                   const data::Dataset& rows);

  ModelRegistry& registry_;
  std::string model_name_;
  SessionOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Request*> queue_;   // admission order
  std::size_t queued_rows_ = 0;
  bool flushing_ = false;
  SessionStats stats_;
};

}  // namespace dsml::engine
