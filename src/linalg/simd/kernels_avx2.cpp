// AVX2 kernel table. Compiled with -mavx2 -ffp-contract=off (see
// src/linalg/CMakeLists.txt); the contract flag matters — if FMA codegen is
// ever enabled for this TU (-mfma, -march=native), the compiler may fuse the
// explicit _mm256_mul_pd/_mm256_add_pd pairs (and the scalar remainder loops)
// into FMAs, which rounds once instead of twice and silently breaks
// bit-identity with the blocked backend.
#include "linalg/simd/simd_kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace dsml::linalg::simd {
namespace {

// The j loop writes independent output elements, so 4-wide vectorization
// never reorders any single accumulation chain: c[i][j] still receives
// aik * b[k][j] in ascending-k order, one rounding per multiply and one per
// add, exactly like the scalar row block.
void gemm_row_block_avx2(const double* a, std::size_t lda, const double* b,
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
      const __m256d av = _mm256_set1_pd(aik);
      std::size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        const __m256d bv = _mm256_loadu_pd(brow + j);
        __m256d cv = _mm256_loadu_pd(crow + j);
        cv = _mm256_add_pd(cv, _mm256_mul_pd(av, bv));
        _mm256_storeu_pd(crow + j, cv);
      }
      for (; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

// gemv is a per-row serial reduction, so vectorizing within a row would
// change the summation tree. Instead each lane owns one whole row: lane L
// accumulates a[i+L][j] * x[j] with j ascending, mul then add — the same
// rounding sequence as the scalar kernel, four rows per pass.
void gemv_avx2(const double* a, std::size_t lda, std::size_t m, std::size_t n,
               const double* x, double* y) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* r0 = a + i * lda;
    const double* r1 = r0 + lda;
    const double* r2 = r1 + lda;
    const double* r3 = r2 + lda;
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t j = 0; j < n; ++j) {
      const __m256d av = _mm256_set_pd(r3[j], r2[j], r1[j], r0[j]);
      const __m256d xv = _mm256_set1_pd(x[j]);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(av, xv));
    }
    _mm256_storeu_pd(y + i, acc);
  }
  for (; i < m; ++i) {
    const double* arow = a + i * lda;
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) s += arow[j] * x[j];
    y[i] = s;
  }
}

// Same across-rows lane layout as gemv_avx2, with the column-subset gather
// done by scalar loads (n_cols is small — the selected regressors).
void gemv_columns_avx2(const double* a, std::size_t lda, std::size_t m,
                       const std::size_t* cols, std::size_t n_cols,
                       const double* beta, double* y) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* r0 = a + i * lda;
    const double* r1 = r0 + lda;
    const double* r2 = r1 + lda;
    const double* r3 = r2 + lda;
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t k = 0; k < n_cols; ++k) {
      const std::size_t c = cols[k];
      const __m256d av = _mm256_set_pd(r3[c], r2[c], r1[c], r0[c]);
      const __m256d bv = _mm256_set1_pd(beta[k]);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
    }
    _mm256_storeu_pd(y + i, acc);
  }
  for (; i < m; ++i) {
    const double* arow = a + i * lda;
    double s = 0.0;
    for (std::size_t k = 0; k < n_cols; ++k) s += arow[cols[k]] * beta[k];
    y[i] = s;
  }
}

constexpr SimdOps kAvx2Ops = {"avx2", gemm_row_block_avx2, gemv_avx2,
                              gemv_columns_avx2};

}  // namespace

const SimdOps* avx2_ops() noexcept { return &kAvx2Ops; }

}  // namespace dsml::linalg::simd

#else  // the build requested this TU without AVX2 codegen flags

namespace dsml::linalg::simd {
const SimdOps* avx2_ops() noexcept { return nullptr; }
}  // namespace dsml::linalg::simd

#endif
