#include "linalg/backend.hpp"

#include <atomic>
#include <cstdlib>

#include "common/cpu.hpp"
#include "common/error.hpp"
#include "linalg/simd/simd_kernels.hpp"

namespace dsml::linalg {

namespace {

// Override slot (set_backend/ScopedBackend) and the lazily cached
// DSML_BACKEND/cpuid resolution. Both hold -1 for "unset"; plain relaxed
// atomics suffice because a racing first resolution computes the same value
// on every thread and the kernels carry no data dependency on the winner.
std::atomic<int> g_override{-1};
std::atomic<int> g_resolved_default{-1};

const simd::SimdOps* detect_simd_ops() noexcept {
#if defined(DSML_LINALG_HAVE_AVX2)
  if (cpu::has_avx2()) {
    if (const simd::SimdOps* ops = simd::avx2_ops()) return ops;
  }
#endif
#if defined(DSML_LINALG_HAVE_SSE2)
  if (cpu::has_sse2()) {
    if (const simd::SimdOps* ops = simd::sse2_ops()) return ops;
  }
#endif
  return nullptr;
}

Backend resolve_default() {
  const char* env = std::getenv("DSML_BACKEND");
  if (env != nullptr && *env != '\0') return parse_backend(env);
  return simd_available() ? Backend::kSimd : Backend::kBlocked;
}

}  // namespace

const char* to_string(Backend backend) noexcept {
  switch (backend) {
    case Backend::kNaive:
      return "naive";
    case Backend::kBlocked:
      return "blocked";
    case Backend::kSimd:
      return "simd";
  }
  return "?";
}

Backend parse_backend(const std::string& name) {
  if (name == "naive") return Backend::kNaive;
  if (name == "blocked") return Backend::kBlocked;
  if (name == "simd") return Backend::kSimd;
  throw InvalidArgument("unknown linalg backend '" + name +
                        "' (expected naive, blocked or simd)");
}

const simd::SimdOps* detail::selected_simd_ops() noexcept {
  // cpuid never changes while the process runs, so detect once and cache.
  static const simd::SimdOps* const ops = detect_simd_ops();
  return ops;
}

bool simd_available() noexcept {
  return detail::selected_simd_ops() != nullptr;
}

const char* simd_variant() noexcept {
  const simd::SimdOps* ops = detail::selected_simd_ops();
  return ops != nullptr ? ops->variant : "none";
}

Backend active_backend() {
  const int override_slot = g_override.load(std::memory_order_relaxed);
  if (override_slot >= 0) return static_cast<Backend>(override_slot);
  int resolved = g_resolved_default.load(std::memory_order_relaxed);
  if (resolved < 0) {
    resolved = static_cast<int>(resolve_default());
    g_resolved_default.store(resolved, std::memory_order_relaxed);
  }
  return static_cast<Backend>(resolved);
}

void set_backend(Backend backend) noexcept {
  g_override.store(static_cast<int>(backend), std::memory_order_relaxed);
}

void reset_backend() noexcept {
  g_override.store(-1, std::memory_order_relaxed);
  g_resolved_default.store(-1, std::memory_order_relaxed);
}

ScopedBackend::ScopedBackend(Backend backend) noexcept
    : previous_(g_override.exchange(static_cast<int>(backend),
                                    std::memory_order_relaxed)) {}

ScopedBackend::~ScopedBackend() {
  g_override.store(previous_, std::memory_order_relaxed);
}

}  // namespace dsml::linalg
