// Pins the runtime kernel-dispatch contract (linalg/backend.hpp): every
// backend produces bit-identical double results over shapes that exercise
// full vector lanes AND scalar remainders, the selection priority order
// (override > DSML_BACKEND > cpuid) holds.
#include "linalg/backend.hpp"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "data/encoder.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "ml/linreg.hpp"
#include "sim/config.hpp"

namespace dsml::linalg {
namespace {

constexpr Backend kAll[] = {Backend::kNaive, Backend::kBlocked,
                            Backend::kSimd};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// --- Name round-trips and parse errors -------------------------------------

TEST(Backend, ToStringParseRoundTrip) {
  for (Backend b : kAll) {
    EXPECT_EQ(parse_backend(to_string(b)), b);
  }
  EXPECT_STREQ(to_string(Backend::kNaive), "naive");
  EXPECT_STREQ(to_string(Backend::kBlocked), "blocked");
  EXPECT_STREQ(to_string(Backend::kSimd), "simd");
}

TEST(Backend, ParseRejectsUnknownNames) {
  EXPECT_THROW(parse_backend(""), InvalidArgument);
  EXPECT_THROW(parse_backend("avx2"), InvalidArgument);
  EXPECT_THROW(parse_backend("SIMD"), InvalidArgument);
  EXPECT_THROW(parse_backend("blocked "), InvalidArgument);
}

// --- Selection priority ----------------------------------------------------

TEST(Backend, ScopedOverrideAppliesAndRestores) {
  const Backend before = active_backend();
  {
    ScopedBackend pin(Backend::kNaive);
    EXPECT_EQ(active_backend(), Backend::kNaive);
    {
      ScopedBackend inner(Backend::kBlocked);
      EXPECT_EQ(active_backend(), Backend::kBlocked);
    }
    EXPECT_EQ(active_backend(), Backend::kNaive);
  }
  EXPECT_EQ(active_backend(), before);
}

TEST(Backend, EnvironmentVariableSelectsBackend) {
  // reset_backend() drops the cached resolution so the env var is re-read.
  for (Backend b : kAll) {
    ::setenv("DSML_BACKEND", to_string(b), 1);
    reset_backend();
    EXPECT_EQ(active_backend(), b) << to_string(b);
  }
  ::unsetenv("DSML_BACKEND");
  reset_backend();
}

TEST(Backend, MalformedEnvironmentValueThrows) {
  ::setenv("DSML_BACKEND", "warp-drive", 1);
  reset_backend();
  EXPECT_THROW(active_backend(), InvalidArgument);
  ::unsetenv("DSML_BACKEND");
  reset_backend();
}

TEST(Backend, OverrideBeatsEnvironment) {
  ::setenv("DSML_BACKEND", "naive", 1);
  reset_backend();
  {
    ScopedBackend pin(Backend::kBlocked);
    EXPECT_EQ(active_backend(), Backend::kBlocked);
  }
  EXPECT_EQ(active_backend(), Backend::kNaive);
  ::unsetenv("DSML_BACKEND");
  reset_backend();
}

TEST(Backend, SimdVariantConsistentWithAvailability) {
  if (simd_available()) {
    EXPECT_STRNE(simd_variant(), "none");
  } else {
    EXPECT_STREQ(simd_variant(), "none");
  }
}

// --- Cross-backend bit-identity over remainder-lane shapes -----------------

// Shapes chosen to cover every vector-lane remainder: widths 1..5 straddle
// the SSE2 (2-lane) and AVX2 (4-lane) double widths, 64/65 exercise full
// blocks plus a trailing element, and the zero planted in A exercises the
// sparsity skip in every GEMM path.
TEST(Backend, GemmBitIdenticalAcrossBackends) {
  Rng rng(11);
  for (std::size_t m : {1ul, 3ul, 5ul, 65ul}) {
    for (std::size_t k : {1ul, 7ul, 33ul}) {
      for (std::size_t n : {1ul, 2ul, 3ul, 4ul, 5ul, 9ul, 64ul}) {
        Matrix a(m, k);
        Matrix b(k, n);
        for (double& v : a.data()) v = rng.uniform(-2.0, 2.0);
        for (double& v : b.data()) v = rng.uniform(-2.0, 2.0);
        a.data()[(m * k) / 2] = 0.0;
        std::vector<std::vector<double>> results;
        for (Backend backend : kAll) {
          ScopedBackend pin(backend);
          Matrix c(m, n);
          kernels::gemm_accumulate(a.data().data(), k, b.data().data(), n,
                                   c.data().data(), n, m, k, n);
          results.emplace_back(c.data().begin(), c.data().end());
        }
        ASSERT_TRUE(same_bits(results[0], results[1]))
            << "naive vs blocked at " << m << "x" << k << "x" << n;
        ASSERT_TRUE(same_bits(results[0], results[2]))
            << "naive vs simd at " << m << "x" << k << "x" << n;
      }
    }
  }
}

TEST(Backend, GemvBitIdenticalAcrossBackends) {
  Rng rng(13);
  for (std::size_t m : {1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 64ul, 65ul}) {
    for (std::size_t n : {1ul, 6ul, 40ul}) {
      Matrix a(m, n);
      for (double& v : a.data()) v = rng.uniform(-2.0, 2.0);
      std::vector<double> x(n);
      for (double& v : x) v = rng.uniform(-2.0, 2.0);
      std::vector<std::size_t> cols;
      for (std::size_t j = 0; j < n; j += 2) cols.push_back(j);
      std::vector<double> beta(cols.size());
      for (double& v : beta) v = rng.uniform(-2.0, 2.0);

      std::vector<std::vector<double>> dense;
      std::vector<std::vector<double>> gathered;
      for (Backend backend : kAll) {
        ScopedBackend pin(backend);
        std::vector<double> y(m);
        kernels::gemv(a.data().data(), n, m, n, x.data(), y.data());
        dense.push_back(y);
        std::vector<double> yc(m);
        kernels::gemv_columns(a.data().data(), n, m, cols.data(),
                              cols.size(), beta.data(), yc.data());
        gathered.push_back(yc);
      }
      ASSERT_TRUE(same_bits(dense[0], dense[1])) << m << "x" << n;
      ASSERT_TRUE(same_bits(dense[0], dense[2])) << m << "x" << n;
      ASSERT_TRUE(same_bits(gathered[0], gathered[1])) << m << "x" << n;
      ASSERT_TRUE(same_bits(gathered[0], gathered[2])) << m << "x" << n;
    }
  }
}

TEST(Backend, AffineForwardBitIdenticalAcrossBackends) {
  Rng rng(17);
  for (std::size_t rows : {1ul, 3ul, 33ul}) {
    for (std::size_t fan_in : {1ul, 5ul, 16ul}) {
      for (std::size_t fan_out : {1ul, 4ul, 9ul}) {
        Matrix x(rows, fan_in);
        Matrix w(fan_out, fan_in);
        std::vector<double> bias(fan_out);
        for (double& v : x.data()) v = rng.uniform(-1.0, 1.0);
        for (double& v : w.data()) v = rng.uniform(-1.0, 1.0);
        for (double& v : bias) v = rng.uniform(-1.0, 1.0);
        std::vector<std::vector<double>> results;
        for (Backend backend : kAll) {
          ScopedBackend pin(backend);
          Matrix out(rows, fan_out);
          Workspace ws;
          kernels::affine_forward(x.data().data(), fan_in, rows, fan_in,
                                  w.data().data(), bias.data(), fan_out,
                                  true, out.data().data(), fan_out, ws);
          results.emplace_back(out.data().begin(), out.data().end());
        }
        ASSERT_TRUE(same_bits(results[0], results[1]));
        ASSERT_TRUE(same_bits(results[0], results[2]));
      }
    }
  }
}

// Model-level pin: a full LinearRegression predict over the design space is
// bit-identical whichever backend serves the kernels, and to the copying
// pipeline (encode, select_columns, multiply) on both of its branches: the
// backward fit's sparse selection takes the gather GEMV, and an enter fit
// capped at three predictors keeps the prefix 0..3, which takes the dense
// GEMV over the design matrix in place.
TEST(Backend, LinearRegressionPredictBackendInvariant) {
  const auto configs = sim::enumerate_design_space();
  std::vector<double> cycles;
  Rng noise(3);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    cycles.push_back(1e6 + noise.uniform(0.0, 1e5));
  }
  const data::Dataset full =
      sim::make_config_dataset(configs, std::move(cycles));
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < full.n_rows(); i += 9) idx.push_back(i);
  const data::Dataset train = full.select_rows(idx);

  // The encoder LinearRegression::fit builds.
  data::EncoderOptions enc;
  enc.mode = data::EncodingMode::kLinearRegression;
  enc.scale_inputs = true;
  enc.scale_target = false;
  enc.drop_constant = true;
  enc.add_intercept = true;
  data::Encoder encoder;
  encoder.fit(train, enc);
  const Matrix x = encoder.encode(full);

  const struct {
    ml::LinRegMethod method;
    std::size_t max_predictors;
    bool prefix;
  } cases[] = {{ml::LinRegMethod::kBackward, 0, false},
               {ml::LinRegMethod::kEnter, 3, true}};
  for (const auto& c : cases) {
    ml::LinearRegression::Options options;
    options.method = c.method;
    options.max_predictors = c.max_predictors;
    ml::LinearRegression model(options);
    model.fit(train);
    const std::vector<std::size_t>& columns = model.ols().columns;
    bool prefix = true;
    for (std::size_t k = 0; k < columns.size(); ++k) {
      prefix = prefix && columns[k] == k;
    }
    ASSERT_EQ(prefix, c.prefix) << ml::to_string(c.method);
    const std::vector<double> copied =
        x.select_columns(columns).multiply(model.ols().beta);
    std::vector<std::vector<double>> results;
    for (Backend backend : kAll) {
      ScopedBackend pin(backend);
      results.push_back(model.predict(full));
    }
    EXPECT_TRUE(same_bits(results[0], results[1])) << ml::to_string(c.method);
    EXPECT_TRUE(same_bits(results[0], results[2])) << ml::to_string(c.method);
    EXPECT_TRUE(same_bits(results[0], copied)) << ml::to_string(c.method);
  }
}

}  // namespace
}  // namespace dsml::linalg
