// Runtime kernel-backend selection for the linalg dispatch layer.
//
// Every public kernel in kernels.hpp routes through a per-backend table chosen
// here. Three backends exist:
//
//   naive   — the reference loops (single full-depth GEMM pass, scalar dots).
//   blocked — the cache-blocked scalar kernels (the pre-dispatch default).
//   simd    — vector kernels from src/linalg/simd/, cpuid-gated (AVX2
//             preferred, SSE2 fallback; falls back to blocked when neither
//             vector TU is usable on this machine).
//
// All three produce bit-identical double results: the simd kernels vectorize
// across independent output elements (or across rows for the gemv
// reductions) with explicit mul-then-add, never reassociating or fusing a
// single accumulation chain. tests/test_backend.cpp pins this with exact
// equality over remainder-lane shapes, and every pre-existing bench
// bit-identity gate runs against whichever backend is active.
//
// Selection, in priority order:
//   1. set_backend()/ScopedBackend — the global `--backend` CLI flag, tests.
//   2. The DSML_BACKEND environment variable ("naive"|"blocked"|"simd";
//      anything else raises InvalidArgument at first dispatch).
//   3. cpuid: simd when a vector TU matches the CPU, else blocked.
#pragma once

#include <iosfwd>
#include <string>

namespace dsml::linalg {

enum class Backend {
  kNaive,
  kBlocked,
  kSimd,
};

/// "naive", "blocked" or "simd".
const char* to_string(Backend backend) noexcept;

/// Parses a backend name as accepted by --backend / DSML_BACKEND (exact,
/// lowercase). Throws InvalidArgument for anything else, listing the valid
/// names.
Backend parse_backend(const std::string& name);

/// True when a vector kernel TU is compiled in and the running CPU supports
/// it (checked once via cpuid).
bool simd_available() noexcept;

/// Which vector variant the simd backend dispatches to on this machine:
/// "avx2", "sse2", or "none" (simd then aliases the blocked kernels).
const char* simd_variant() noexcept;

/// The backend all kernels currently dispatch through. Resolves the
/// DSML_BACKEND override lazily on first use; a malformed value raises
/// InvalidArgument here rather than being silently ignored.
Backend active_backend();

/// Process-wide backend override (the global --backend flag). Takes
/// precedence over DSML_BACKEND and cpuid until reset_backend().
void set_backend(Backend backend) noexcept;

/// Drops any set_backend() override and forgets the cached DSML_BACKEND
/// resolution, so the next active_backend() re-reads the environment.
/// Primarily for tests that mutate DSML_BACKEND.
void reset_backend() noexcept;

/// RAII backend override: applies `backend` on construction and restores the
/// previous override state (including "no override") on destruction. The CLI
/// uses one per --backend run so repeated in-process invocations stay
/// isolated; tests use it to pin each backend in turn.
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend backend) noexcept;
  ~ScopedBackend();
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  int previous_;  // raw override slot: -1 = none, else static_cast<int>(Backend)
};

namespace simd {
struct SimdOps;
}

namespace detail {
/// The cpuid-selected vector ops table, or nullptr when no vector TU matches
/// this machine. Internal to the linalg dispatch layer (kernels.cpp); everyone
/// else asks simd_available()/simd_variant().
const simd::SimdOps* selected_simd_ops() noexcept;
}  // namespace detail

}  // namespace dsml::linalg
