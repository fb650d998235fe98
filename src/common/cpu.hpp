// The host CPU's instruction-set extensions, probed once per process.
//
// sim, ml and linalg each compile vector kernels behind their own
// DSML_*_HAVE_* flags, which say what a build carries. Which of those the
// host can run is this probe's answer, the one all three read. Off x86,
// every answer is false.
#pragma once

namespace dsml::cpu {

/// True when the host runs SSE2 instructions.
bool has_sse2() noexcept;

/// True when the host runs AVX2 instructions.
bool has_avx2() noexcept;

/// True when the host runs AVX-512F instructions. GCC's check includes the
/// OS saving the 512-bit state.
bool has_avx512f() noexcept;

}  // namespace dsml::cpu
