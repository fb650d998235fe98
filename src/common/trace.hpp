// Process-wide execution tracing: RAII spans exported as Chrome
// chrome://tracing JSON (load the file via the "Load" button at
// chrome://tracing or at https://ui.perfetto.dev).
//
// The pipeline hot paths (training epochs, cross-validation folds, model
// selection candidates, design-space sweeps, CLI subcommands) open spans so a
// single trace answers "where does the wall-clock go" across threads; the
// thread pool and kernels feed the companion metrics registry
// (common/metrics.hpp) for the aggregate view.
//
// Overhead contract (pinned by tests/test_trace.cpp): when tracing is
// disabled — the default — every hook is one relaxed atomic load and a
// branch; no clock is read, no string is built, no lock is taken. Model
// outputs are bit-identical with tracing on or off, because the layer only
// *observes* (spans never branch the computation).
//
// Enabling:
//  - environment: DSML_TRACE=<file> traces the whole process and writes the
//    file at exit (or at an explicit stop()).
//  - programmatic: trace::start(path) ... trace::stop(). The CLI wires this
//    to a global `--trace <file>` flag on every subcommand.
//
// Concurrency: spans may open and close on any thread (the TSan suite traces
// concurrent cross-validation folds). Events carry a small per-thread id and
// the span's nesting depth on its thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace dsml::trace {

namespace internal {

/// The one branch the disabled path pays. Relaxed is sufficient: a stale
/// read merely starts/stops collection one event late, never tears data.
extern std::atomic<bool> g_enabled;

/// Microseconds since the tracer's origin timestamp.
double now_us() noexcept;

/// Records a completed span ('X' event). Takes the collection lock.
void record_span(std::string name, const char* category, double start_us,
                 double dur_us, std::uint32_t depth);

/// Records a counter sample ('C' event). Takes the collection lock.
void record_counter(const char* name, double value);

/// Per-thread state used by Span; exposed for tests.
std::uint32_t current_depth() noexcept;

void enter_depth() noexcept;
void leave_depth() noexcept;

}  // namespace internal

/// True while a trace is being collected.
inline bool enabled() noexcept {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Starts collecting a new trace, discarding any previous events. `path` is
/// where stop() (or process exit) writes the Chrome JSON; pass "" to collect
/// in memory only (tests use this and read the JSON from stop()).
void start(std::string path);

/// Stops collecting, serializes the events to Chrome trace JSON, writes the
/// file configured by start()/DSML_TRACE (if any), and returns the JSON.
/// No-op returning "" when tracing was not started.
std::string stop();

/// RAII span: measures construction→destruction and records a Chrome 'X'
/// (complete) event on the constructing thread. When tracing is disabled the
/// constructor is a relaxed load + branch; the string_view is not copied and
/// no clock is read.
class Span {
 public:
  explicit Span(std::string_view name, const char* category = "dsml") {
    if (!enabled()) return;
    begin(name, category);
  }

  /// Lazy-name overload for dynamic labels: the callable (returning
  /// std::string) runs only when tracing is enabled, so the disabled path
  /// never pays for string building.
  template <typename F, typename = std::enable_if_t<
                            std::is_invocable_r_v<std::string, F>>>
  explicit Span(F&& name_fn, const char* category = "dsml") {
    if (!enabled()) return;
    begin(std::forward<F>(name_fn)(), category);
  }

  ~Span() {
    if (!active_) return;
    internal::leave_depth();
    internal::record_span(std::move(name_), category_, start_us_,
                          internal::now_us() - start_us_, depth_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(std::string_view name, const char* category) {
    active_ = true;
    name_.assign(name);
    category_ = category;
    depth_ = internal::current_depth();
    internal::enter_depth();
    start_us_ = internal::now_us();
  }

  bool active_ = false;
  std::string name_;
  const char* category_ = "";
  double start_us_ = 0.0;
  std::uint32_t depth_ = 0;
};

/// Records a counter sample (Chrome 'C' event), e.g. per-epoch training
/// loss. One relaxed load + branch when disabled.
inline void counter(const char* name, double value) {
  if (!enabled()) return;
  internal::record_counter(name, value);
}

/// Wall-clock stopwatch for library code that needs elapsed seconds as data
/// (e.g. dse fit_seconds results). Centralising the clock here keeps direct
/// std::chrono timing out of src/ (enforced by dsml-lint's raw-clock-in-lib
/// rule) so all timing flows through one audited site.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(std::chrono::steady_clock::now()) {}

  double seconds() const noexcept {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  void restart() noexcept { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dsml::trace
