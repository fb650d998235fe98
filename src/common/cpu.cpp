#include "common/cpu.hpp"

namespace dsml::cpu {

// cpuid never changes while the process runs, so each answer is probed on
// first use and kept.
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))

bool has_sse2() noexcept {
  static const bool supported = __builtin_cpu_supports("sse2");
  return supported;
}

bool has_avx2() noexcept {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
}

bool has_avx512f() noexcept {
  static const bool supported = __builtin_cpu_supports("avx512f");
  return supported;
}

#else

bool has_sse2() noexcept { return false; }
bool has_avx2() noexcept { return false; }
bool has_avx512f() noexcept { return false; }

#endif

}  // namespace dsml::cpu
