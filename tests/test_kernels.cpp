// Golden tests for the cache-blocked kernels (linalg/kernels.hpp): every
// optimized kernel must be BIT-IDENTICAL to the naive loop it replaced, not
// merely close — the training/validation paths make tolerance-based control
// decisions (e.g. Mlp::mse snapshots), so any reassociation would change
// model selection downstream. Comparisons therefore use EXPECT_EQ on
// doubles, never EXPECT_NEAR.
#include "linalg/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace dsml::linalg {
namespace {

std::vector<double> random_block(std::size_t n, Rng& rng) {
  std::vector<double> out(n);
  for (double& v : out) v = rng.uniform(-2.0, 2.0);
  return out;
}

void expect_bit_identical(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "element " << i;
  }
}

// --- GEMM -------------------------------------------------------------------

void check_gemm_matches_reference(std::size_t m, std::size_t k,
                                  std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<double> a = random_block(m * k, rng);
  const std::vector<double> b = random_block(k * n, rng);
  std::vector<double> c_blocked(m * n, 0.0);
  std::vector<double> c_reference(m * n, 0.0);
  kernels::gemm_accumulate(a.data(), k, b.data(), n, c_blocked.data(), n, m,
                           k, n);
  kernels::gemm_accumulate_reference(a.data(), k, b.data(), n,
                                     c_reference.data(), n, m, k, n);
  expect_bit_identical(c_blocked, c_reference);
}

TEST(Gemm, BlockedMatchesReferenceBitForBit) {
  // Sizes straddle the kRowBlock=64 / kDepthBlock=256 tile boundaries:
  // smaller, exact multiples, one-past, and ragged remainders.
  check_gemm_matches_reference(1, 1, 1, 11);
  check_gemm_matches_reference(7, 5, 3, 12);
  check_gemm_matches_reference(64, 256, 8, 13);
  check_gemm_matches_reference(65, 257, 9, 14);
  check_gemm_matches_reference(130, 300, 17, 15);
  check_gemm_matches_reference(63, 255, 33, 16);
  // B exceeds kCacheResidentBytes (600*300*8 = 1.44 MiB), forcing the
  // depth-split path the smaller shapes above never enter.
  check_gemm_matches_reference(70, 600, 300, 17);
}

TEST(Gemm, AccumulatesIntoExistingOutput) {
  Rng rng(21);
  const std::size_t m = 17, k = 23, n = 13;
  const std::vector<double> a = random_block(m * k, rng);
  const std::vector<double> b = random_block(k * n, rng);
  std::vector<double> c_blocked = random_block(m * n, rng);
  std::vector<double> c_reference = c_blocked;  // same starting contents
  kernels::gemm_accumulate(a.data(), k, b.data(), n, c_blocked.data(), n, m,
                           k, n);
  kernels::gemm_accumulate_reference(a.data(), k, b.data(), n,
                                     c_reference.data(), n, m, k, n);
  expect_bit_identical(c_blocked, c_reference);
}

TEST(Gemm, HonorsLeadingDimensionsOnSubmatrices) {
  Rng rng(31);
  const std::size_t m = 70, k = 40, n = 20;
  const std::size_t lda = k + 5, ldb = n + 3, ldc = n + 7;
  const std::vector<double> a = random_block(m * lda, rng);
  const std::vector<double> b = random_block(k * ldb, rng);
  std::vector<double> c_blocked(m * ldc, 0.0);
  std::vector<double> c_reference(m * ldc, 0.0);
  kernels::gemm_accumulate(a.data(), lda, b.data(), ldb, c_blocked.data(),
                           ldc, m, k, n);
  kernels::gemm_accumulate_reference(a.data(), lda, b.data(), ldb,
                                     c_reference.data(), ldc, m, k, n);
  expect_bit_identical(c_blocked, c_reference);
  // Padding columns beyond n stay untouched.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = n; j < ldc; ++j) {
      EXPECT_EQ(c_blocked[i * ldc + j], 0.0);
    }
  }
}

TEST(Gemm, ZeroEntriesInAPreserveNonFinitePropagation) {
  // The aik == 0.0 skip means 0 * Inf contributes nothing, exactly like the
  // historical Matrix::multiply (weight masks zero whole entries).
  const std::size_t m = 2, k = 2, n = 2;
  const std::vector<double> a = {0.0, 1.0, 2.0, 0.0};
  const std::vector<double> b = {INFINITY, NAN, 3.0, 4.0};
  std::vector<double> c_blocked(m * n, 0.0);
  std::vector<double> c_reference(m * n, 0.0);
  kernels::gemm_accumulate(a.data(), k, b.data(), n, c_blocked.data(), n, m,
                           k, n);
  kernels::gemm_accumulate_reference(a.data(), k, b.data(), n,
                                     c_reference.data(), n, m, k, n);
  EXPECT_EQ(c_blocked[0], 3.0);
  EXPECT_EQ(c_blocked[1], 4.0);
  EXPECT_EQ(c_blocked[2], 2.0 * INFINITY);
  for (std::size_t i = 0; i < c_blocked.size(); ++i) {
    if (std::isnan(c_reference[i])) {
      EXPECT_TRUE(std::isnan(c_blocked[i]));
    } else {
      EXPECT_EQ(c_blocked[i], c_reference[i]);
    }
  }
}

TEST(Gemm, MatrixMultiplyDelegatesToBlockedKernel) {
  Rng rng(41);
  Matrix a(33, 47);
  Matrix b(47, 21);
  for (double& v : a.data()) v = rng.uniform(-1.0, 1.0);
  for (double& v : b.data()) v = rng.uniform(-1.0, 1.0);
  const Matrix prod = a.multiply(b);
  std::vector<double> want(a.rows() * b.cols(), 0.0);
  kernels::gemm_accumulate_reference(a.data().data(), a.cols(),
                                     b.data().data(), b.cols(), want.data(),
                                     b.cols(), a.rows(), a.cols(), b.cols());
  ASSERT_EQ(prod.rows(), a.rows());
  ASSERT_EQ(prod.cols(), b.cols());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(prod.data()[i], want[i]);
  }
}

// --- Transpose --------------------------------------------------------------

TEST(Transpose, MatchesElementwiseDefinition) {
  Rng rng(51);
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{1, 1},
        {3, 7},
        {32, 32},
        {33, 65},
        {100, 40}}) {
    const std::vector<double> a = random_block(rows * cols, rng);
    std::vector<double> t(cols * rows, 0.0);
    kernels::transpose(a.data(), cols, rows, cols, t.data(), rows);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        ASSERT_EQ(t[j * rows + i], a[i * cols + j]) << rows << "x" << cols;
      }
    }
  }
}

TEST(Transpose, MatrixTransposedRoundTrips) {
  Rng rng(52);
  Matrix a(37, 53);
  for (double& v : a.data()) v = rng.uniform(-1.0, 1.0);
  const Matrix t = a.transposed();
  ASSERT_EQ(t.rows(), a.cols());
  ASSERT_EQ(t.cols(), a.rows());
  const Matrix back = t.transposed();
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_EQ(back.data()[i], a.data()[i]);
  }
}

// --- GEMV -------------------------------------------------------------------

TEST(Gemv, MatchesAscendingScalarDot) {
  Rng rng(61);
  const std::size_t m = 41, n = 29;
  const std::vector<double> a = random_block(m * n, rng);
  const std::vector<double> x = random_block(n, rng);
  std::vector<double> y(m, 0.0);
  kernels::gemv(a.data(), n, m, n, x.data(), y.data());
  for (std::size_t i = 0; i < m; ++i) {
    double z = 0.0;
    for (std::size_t j = 0; j < n; ++j) z += a[i * n + j] * x[j];
    ASSERT_EQ(y[i], z) << "row " << i;
  }
}

TEST(Gemv, SelectedColumnsMatchMaterializedSubset) {
  Rng rng(62);
  const std::size_t m = 37, n = 19;
  Matrix a(m, n);
  for (double& v : a.data()) v = rng.uniform(-1.0, 1.0);
  const std::vector<std::size_t> cols = {0, 3, 4, 11, 18};
  const std::vector<double> beta = random_block(cols.size(), rng);
  std::vector<double> fused(m, 0.0);
  kernels::gemv_columns(a.data().data(), a.cols(), m, cols.data(),
                        cols.size(), beta.data(), fused.data());
  const std::vector<double> want = a.select_columns(cols).multiply(beta);
  expect_bit_identical(fused, want);
}

// --- affine_forward ---------------------------------------------------------

void check_affine_forward(bool sigmoid_activation) {
  Rng rng(sigmoid_activation ? 71 : 72);
  const std::size_t rows = 67, fan_in = 16, fan_out = 9;
  const std::size_t ldx = fan_in + 2, ldo = fan_out + 3;
  const std::vector<double> x = random_block(rows * ldx, rng);
  const std::vector<double> w = random_block(fan_out * fan_in, rng);
  const std::vector<double> bias = random_block(fan_out, rng);
  std::vector<double> out(rows * ldo, -1.0);
  Workspace ws;
  kernels::affine_forward(x.data(), ldx, rows, fan_in, w.data(), bias.data(),
                          fan_out, sigmoid_activation, out.data(), ldo, ws);
  // Scalar reference: z starts from the bias, fan-in terms added ascending —
  // the exact order Mlp::forward_pass uses.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < fan_out; ++i) {
      double z = bias[i];
      for (std::size_t j = 0; j < fan_in; ++j) {
        z += w[i * fan_in + j] * x[r * ldx + j];
      }
      if (sigmoid_activation) z = 1.0 / (1.0 + std::exp(-z));
      ASSERT_EQ(out[r * ldo + i], z) << "row " << r << " unit " << i;
    }
    for (std::size_t i = fan_out; i < ldo; ++i) {
      ASSERT_EQ(out[r * ldo + i], -1.0);  // padding untouched
    }
  }
}

TEST(AffineForward, LinearLayerMatchesScalarReference) {
  check_affine_forward(false);
}

TEST(AffineForward, SigmoidLayerMatchesScalarReference) {
  check_affine_forward(true);
}

// --- Workspace --------------------------------------------------------------

TEST(Workspace, EarlierSpansSurviveLaterTakes) {
  Workspace ws;
  Workspace::Scope scope(ws);
  std::span<double> first = ws.take(64);
  for (std::size_t i = 0; i < first.size(); ++i) {
    first[i] = static_cast<double>(i);
  }
  std::span<double> second = ws.take(1 << 14);
  for (double& v : second) v = -1.0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], static_cast<double>(i));
  }
  EXPECT_EQ(ws.buffers_in_use(), 2u);
}

TEST(Workspace, ScopeRestoresAndSlabsAreRecycled) {
  Workspace ws;
  double* slab0 = nullptr;
  {
    Workspace::Scope scope(ws);
    std::span<double> buf = ws.take(128);
    slab0 = buf.data();
    EXPECT_EQ(ws.buffers_in_use(), 1u);
    {
      Workspace::Scope inner(ws);
      ws.take(32);
      EXPECT_EQ(ws.buffers_in_use(), 2u);
    }
    EXPECT_EQ(ws.buffers_in_use(), 1u);
  }
  EXPECT_EQ(ws.buffers_in_use(), 0u);
  // Steady state: the same slab backs the next equal-or-smaller request.
  Workspace::Scope scope(ws);
  std::span<double> again = ws.take(64);
  EXPECT_EQ(again.data(), slab0);
}

TEST(Workspace, TlsWorkspaceIsStablePerThread) {
  Workspace& a = tls_workspace();
  Workspace& b = tls_workspace();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace dsml::linalg
