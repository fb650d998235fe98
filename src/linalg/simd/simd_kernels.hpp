// Vector kernel entry points for the runtime-dispatched `simd` backend.
//
// Each TU in this directory (kernels_avx2.cpp, kernels_sse2.cpp) is compiled
// with its own arch flags and exports one SimdOps table; backend.cpp picks a
// table at startup via cpuid. This header is deliberately self-contained
// (nothing but <cstddef>) so the vector TUs depend on no other linalg header
// and the linalg_simd layer stays a leaf under common.
//
// Bit-identity contract: every operation pairs an explicit vector multiply
// with an explicit vector add (never a fused multiply-add), vectorized across
// *independent* output elements, so each scalar accumulation chain sees
// exactly the same sequence of IEEE roundings as the blocked kernels in
// kernels.cpp. The TUs are compiled with -ffp-contract=off so the compiler
// cannot re-fuse those pairs.
#pragma once

#include <cstddef>

namespace dsml::linalg::simd {

/// One backend variant's kernel table. Function pointers are never null in a
/// table returned by avx2_ops()/sse2_ops().
struct SimdOps {
  /// Variant tag for diagnostics and bench output ("avx2", "sse2").
  const char* variant;

  /// One row block of C += A * B over rows [i0, i1) and depth [k0, k1);
  /// identical loop structure (and identical per-element rounding) to the
  /// scalar gemm_row_block in kernels.cpp, including the aik == 0.0 skip.
  void (*gemm_row_block)(const double* a, std::size_t lda, const double* b,
                         std::size_t ldb, double* c, std::size_t ldc,
                         std::size_t i0, std::size_t i1, std::size_t k0,
                         std::size_t k1, std::size_t n);

  /// y[i] = sum_j a(i, j) * x[j]. Vectorized across rows (each lane owns one
  /// row's serial ascending-j reduction), so per-element order matches the
  /// scalar gemv exactly.
  void (*gemv)(const double* a, std::size_t lda, std::size_t m, std::size_t n,
               const double* x, double* y);

  /// y[i] = sum_k a(i, cols[k]) * beta[k]; same across-rows lane layout as
  /// gemv.
  void (*gemv_columns)(const double* a, std::size_t lda, std::size_t m,
                       const std::size_t* cols, std::size_t n_cols,
                       const double* beta, double* y);
};

/// The AVX2 table, or nullptr when this build carries no AVX2 TU.
/// Callers must still gate on cpuid before using it.
const SimdOps* avx2_ops() noexcept;

/// The SSE2 table, or nullptr when this build carries no SSE2 TU.
const SimdOps* sse2_ops() noexcept;

}  // namespace dsml::linalg::simd
