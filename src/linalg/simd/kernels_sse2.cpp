// SSE2 kernel table — the fallback vector backend for x86 CPUs without
// AVX2. Compiled with -msse2 -ffp-contract=off; the same bit-identity rules
// as kernels_avx2.cpp apply (explicit mul then add, two lanes of independent
// accumulation chains).
#include "linalg/simd/simd_kernels.hpp"

#if defined(__SSE2__)

#include <emmintrin.h>

namespace dsml::linalg::simd {
namespace {

void gemm_row_block_sse2(const double* a, std::size_t lda, const double* b,
                         std::size_t ldb, double* c, std::size_t ldc,
                         std::size_t i0, std::size_t i1, std::size_t k0,
                         std::size_t k1, std::size_t n) {
  for (std::size_t i = i0; i < i1; ++i) {
    const double* arow = a + i * lda;
    double* crow = c + i * ldc;
    for (std::size_t k = k0; k < k1; ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b + k * ldb;
      const __m128d av = _mm_set1_pd(aik);
      std::size_t j = 0;
      for (; j + 2 <= n; j += 2) {
        const __m128d bv = _mm_loadu_pd(brow + j);
        __m128d cv = _mm_loadu_pd(crow + j);
        cv = _mm_add_pd(cv, _mm_mul_pd(av, bv));
        _mm_storeu_pd(crow + j, cv);
      }
      for (; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void gemv_sse2(const double* a, std::size_t lda, std::size_t m, std::size_t n,
               const double* x, double* y) {
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const double* r0 = a + i * lda;
    const double* r1 = r0 + lda;
    __m128d acc = _mm_setzero_pd();
    for (std::size_t j = 0; j < n; ++j) {
      const __m128d av = _mm_set_pd(r1[j], r0[j]);
      const __m128d xv = _mm_set1_pd(x[j]);
      acc = _mm_add_pd(acc, _mm_mul_pd(av, xv));
    }
    _mm_storeu_pd(y + i, acc);
  }
  for (; i < m; ++i) {
    const double* arow = a + i * lda;
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) s += arow[j] * x[j];
    y[i] = s;
  }
}

void gemv_columns_sse2(const double* a, std::size_t lda, std::size_t m,
                       const std::size_t* cols, std::size_t n_cols,
                       const double* beta, double* y) {
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const double* r0 = a + i * lda;
    const double* r1 = r0 + lda;
    __m128d acc = _mm_setzero_pd();
    for (std::size_t k = 0; k < n_cols; ++k) {
      const std::size_t c = cols[k];
      const __m128d av = _mm_set_pd(r1[c], r0[c]);
      const __m128d bv = _mm_set1_pd(beta[k]);
      acc = _mm_add_pd(acc, _mm_mul_pd(av, bv));
    }
    _mm_storeu_pd(y + i, acc);
  }
  for (; i < m; ++i) {
    const double* arow = a + i * lda;
    double s = 0.0;
    for (std::size_t k = 0; k < n_cols; ++k) s += arow[cols[k]] * beta[k];
    y[i] = s;
  }
}

constexpr SimdOps kSse2Ops = {"sse2", gemm_row_block_sse2, gemv_sse2,
                              gemv_columns_sse2};

}  // namespace

const SimdOps* sse2_ops() noexcept { return &kSse2Ops; }

}  // namespace dsml::linalg::simd

#else  // the build requested this TU without SSE2 codegen

namespace dsml::linalg::simd {
const SimdOps* sse2_ops() noexcept { return nullptr; }
}  // namespace dsml::linalg::simd

#endif
