// The `dsml loadgen` serving-load driver: opens N concurrent TCP
// connections against a `dsml serve --listen` front-end, sends M
// JSON-lines prediction requests per connection (rows drawn
// deterministically from the enumerated design space), verifies every
// response, and reports latency percentiles and throughput. With --json it
// emits a machine-readable BENCH_SERVE.json, which also records the
// machine (hardware_concurrency, and the CPUs loadgen's affinity allows);
// with --check it gates the deterministic fields (config and ok/error
// counts) against a committed baseline — timing and machine fields are
// informational only, because CI wall-clock noise would make a latency gate
// flap.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace dsml::loadgen {

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  /// Concurrent connections, each driven by its own thread.
  std::size_t connections = 8;
  /// Requests sent per connection (sequential call-and-response).
  std::size_t requests = 32;
  /// Design-space rows per request.
  std::size_t rows = 4;

  /// "model" field for every request; "" relies on the server default.
  std::string model;

  /// Connect/read/write deadline per socket operation in milliseconds;
  /// 0 blocks forever (historical behaviour). With a deadline, a wedged or
  /// mid-response-dead server surfaces as a counted request error instead
  /// of hanging the run.
  std::uint32_t timeout_ms = 0;

  /// Write the JSON report here ("" = text summary only).
  std::string json_path;
  /// Compare deterministic fields against this committed baseline.
  std::string check_path;
};

/// Runs the load, prints a summary to `out`. Returns 0 when every response
/// was ok and the --check gate (if any) passed; 1 otherwise.
int run(const Options& options, std::ostream& out, std::ostream& err);

}  // namespace dsml::loadgen
