// JSON-lines request serving: the engine's proof workload.
//
// Protocol (one JSON document per input line; one response per request):
//
//   → {"model": "gcc", "rows": [{"l1d_size_kb": 32, ..., "branch_predictor":
//      "bimodal", "issue_wrong": false}, ...]}
//   ← {"ok": true, "model": "gcc", "version": 1, "predictions": [123456.0]}
//
// Rows are objects keyed by the model's schema column names (extra keys are
// rejected, missing keys are reported with the column name). Failures never
// kill the loop:
//
//   - a malformed line / missing "rows" array / unknown model / bad row
//     value produces {"ok": false, "error": ..., "error_type": <taxonomy
//     name>} and counts as a request *error*;
//   - a row that fails *prediction* (e.g. an injected failpoint) produces a
//     partial response: "ok" false, "partial" true, null in `predictions`
//     at the failed positions, and an `errors` array naming each row —
//     surviving rows still carry their predictions. Partial responses are
//     counted separately from errors (`ServeSummary::partial`,
//     `engine.serve.partial`): some rows were answered, so reporting them
//     as failures would over-state how degraded the run was.
//
// The request/response logic lives in ServeHandler so every front-end
// speaks the identical protocol: serve() wraps it in a stdin/stdout
// getline loop, and the TCP front-end (net/server.hpp, `dsml serve
// --listen`) dispatches each framed line to the same handler — responses
// are byte-identical across transports. Each request is predicted as one
// batch through the model's InferenceSession; metrics (`engine.serve.*`)
// and trace spans follow every request.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "engine/registry.hpp"
#include "engine/session.hpp"

namespace dsml::engine {

struct ServeOptions {
  /// Used when a request omits "model"; "" means the field is required.
  std::string default_model;
};

struct ServeSummary {
  std::uint64_t requests = 0;  ///< lines answered (including errors)
  std::uint64_t rows = 0;      ///< rows predicted successfully
  std::uint64_t errors = 0;    ///< whole-request failures (no row answered)
  std::uint64_t partial = 0;   ///< responses where only some rows failed
};

/// Answers serve-protocol requests one line at a time, independent of the
/// transport that framed them. Thread-safe: both front-ends call handle()
/// from one thread, but concurrent calls predict side by side, each on its
/// own rows.
class ServeHandler {
 public:
  /// Rows one request may carry. A larger request is answered alone with
  /// StateError and the loop keeps serving. Over TCP the front-end's 1 MiB
  /// default line bound (net::ServerOptions::max_request_bytes) binds first.
  static constexpr std::size_t kMaxRequestRows = 4096;

  /// Sessions are created lazily per requested model against `registry`,
  /// which must outlive the handler.
  explicit ServeHandler(ModelRegistry& registry, ServeOptions options = {});
  ~ServeHandler();

  ServeHandler(const ServeHandler&) = delete;
  ServeHandler& operator=(const ServeHandler&) = delete;

  /// Answers one request line with a newline-terminated compact JSON
  /// response; "" for blank lines (which are not counted as requests).
  /// Never throws for request-level failures.
  std::string handle(std::string_view line);

  ServeSummary summary() const;

 private:
  std::string answer(std::string_view line);

  ModelRegistry& registry_;
  ServeOptions options_;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<InferenceSession>> sessions_;
  ServeSummary summary_;
};

/// Reads requests from `in` until EOF, writing one compact JSON response
/// line to `out` per request. Never throws for request-level failures; the
/// summary says how much work was done.
ServeSummary serve(ModelRegistry& registry, std::istream& in,
                   std::ostream& out, const ServeOptions& options = {});

}  // namespace dsml::engine
