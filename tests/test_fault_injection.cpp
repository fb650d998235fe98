// Fault-injection suite (ctest -L fault): failpoint spec parsing and trigger
// semantics, the bounded-retry policy, graceful degradation in the
// cross-validation / Select / dse layers, crash-safe artifact writes, and the
// bit-identity contract (arming an unmatched failpoint must not perturb any
// model output). Runs under the tsan label too: hits fire from pool workers.
#include "common/failpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "common/atomic_io.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "data/column.hpp"
#include "data/dataset.hpp"
#include "ml/linreg.hpp"
#include "ml/metrics.hpp"
#include "ml/nn_models.hpp"
#include "ml/serialize.hpp"
#include "ml/validation.hpp"

namespace dsml {
namespace {

namespace fs = std::filesystem;

data::Dataset make_linear_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x1(n);
  std::vector<double> x2(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x1[i] = rng.uniform(0.0, 10.0);
    x2[i] = rng.uniform(0.0, 10.0);
    y[i] = 50.0 + 3.0 * x1[i] + 1.0 * x2[i] + rng.gaussian(0.0, 0.5);
  }
  data::Dataset ds;
  ds.add_feature(data::Column::numeric("x1", std::move(x1)));
  ds.add_feature(data::Column::numeric("x2", std::move(x2)));
  ds.set_target("y", std::move(y));
  return ds;
}

ml::ModelFactory lr_factory() {
  return []() -> std::unique_ptr<ml::Regressor> {
    return std::make_unique<ml::LinearRegression>();
  };
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Every test leaves the process disarmed, whatever path it exits through.
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::clear(); }
};

// --- Spec parsing and trigger semantics -------------------------------------

TEST_F(FailpointTest, DisabledByDefaultAndFreeToHit) {
  EXPECT_FALSE(failpoint::enabled());
  EXPECT_NO_THROW(DSML_FAIL("not.armed"));
  EXPECT_FALSE(DSML_FAIL_POISON("not.armed"));
  EXPECT_EQ(failpoint::hits("not.armed"), 0u);
}

TEST_F(FailpointTest, ConfigureArmsInSpecOrderAndClearDisarms) {
  failpoint::configure("b.second=err:IoError, a.first=nth:4");
  EXPECT_TRUE(failpoint::enabled());
  EXPECT_EQ(failpoint::armed(),
            (std::vector<std::string>{"b.second", "a.first"}));
  failpoint::clear();
  EXPECT_FALSE(failpoint::enabled());
  EXPECT_TRUE(failpoint::armed().empty());
}

TEST_F(FailpointTest, MalformedSpecThrowsAndKeepsPreviousConfig) {
  failpoint::configure("keep.me=nth:5");
  for (const char* bad :
       {"nonsense", "=nth:1", "a=", "a=nth:0", "a=nth:x", "a=nth:",
        "a=prob:0.5", "a=prob:1.5@1", "a=prob:x@1", "a=prob:0.5@",
        "a=err:Bogus", "a=nth:1,a=nth:2", "x=nth:-1", "x=nth:+3",
        "x=nth:99999999999999999999", "x=prob:0.5@-1"}) {
    EXPECT_THROW(failpoint::configure(bad), InvalidArgument) << bad;
  }
  // The previous configuration survived every failed reconfigure.
  EXPECT_EQ(failpoint::armed(), (std::vector<std::string>{"keep.me"}));
  EXPECT_TRUE(failpoint::enabled());
}

TEST_F(FailpointTest, NthTriggerFiresExactlyOnTheNthHit) {
  failpoint::configure("p=nth:3");
  const std::uint64_t fires_before =
      metrics::counter("failpoint.p.fires").value();
  for (int i = 1; i <= 5; ++i) {
    if (i == 3) {
      EXPECT_THROW(DSML_FAIL("p"), NumericalError) << "hit " << i;
    } else {
      EXPECT_NO_THROW(DSML_FAIL("p")) << "hit " << i;
    }
  }
  EXPECT_EQ(failpoint::hits("p"), 5u);
  EXPECT_EQ(metrics::counter("failpoint.p.fires").value(), fires_before + 1);
}

TEST_F(FailpointTest, ErrTriggerThrowsTheNamedTaxonomyType) {
  failpoint::configure("io=err:IoError,train=err:TrainingError");
  EXPECT_THROW(DSML_FAIL("io"), IoError);
  EXPECT_THROW(DSML_FAIL("io"), IoError);  // every hit, not just the first
  try {
    DSML_FAIL("train");
    FAIL() << "expected TrainingError";
  } catch (const TrainingError& e) {
    EXPECT_EQ(e.model(), "failpoint");
    EXPECT_EQ(error_kind(e), "TrainingError");
  }
}

TEST_F(FailpointTest, ProbTriggerIsDeterministicInSeedAndHitIndex) {
  const auto pattern = [](const std::string& spec) {
    failpoint::configure(spec);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(DSML_FAIL_POISON("p"));
    return fired;
  };
  const std::vector<bool> a = pattern("p=prob:0.5@42");
  const std::vector<bool> b = pattern("p=prob:0.5@42");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, pattern("p=prob:0.5@43"));  // seed matters
  // Degenerate probabilities behave as advertised.
  const std::vector<bool> never = pattern("p=prob:0@1");
  EXPECT_EQ(std::count(never.begin(), never.end(), true), 0);
  const std::vector<bool> always = pattern("p=prob:1@1");
  EXPECT_EQ(std::count(always.begin(), always.end(), true), 64);
}

TEST_F(FailpointTest, PoisonFormReportsFiresWithoutThrowing) {
  failpoint::configure("p=err:NumericalError");
  bool fired = false;
  EXPECT_NO_THROW(fired = DSML_FAIL_POISON("p"));
  EXPECT_TRUE(fired);
}

TEST_F(FailpointTest, ScopedFailpointsRestoresThePreviousSpec) {
  failpoint::configure("outer=nth:9");
  {
    failpoint::ScopedFailpoints inner("inner=err:IoError");
    EXPECT_EQ(failpoint::armed(), (std::vector<std::string>{"inner"}));
  }
  EXPECT_EQ(failpoint::armed(), (std::vector<std::string>{"outer"}));
  {
    failpoint::ScopedFailpoints disarm("");
    EXPECT_FALSE(failpoint::enabled());
  }
  EXPECT_EQ(failpoint::armed(), (std::vector<std::string>{"outer"}));
}

TEST_F(FailpointTest, ConcurrentHitsFromPoolWorkersAreClean) {
  // TSan pins this: pool workers hammer one armed point and one unarmed name
  // concurrently; the accounting must neither race nor lose hits.
  failpoint::configure("pool.hammer=prob:0.5@7");
  std::atomic<std::size_t> fired{0};
  parallel_for(0, 1000, [&](std::size_t) {
    try {
      DSML_FAIL("pool.hammer");
      DSML_FAIL("pool.unarmed");
    } catch (const NumericalError&) {
      fired.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(failpoint::hits("pool.hammer"), 1000u);
  EXPECT_GT(fired.load(), 0u);
  EXPECT_LT(fired.load(), 1000u);
}

// --- retry() policy ---------------------------------------------------------

TEST_F(FailpointTest, RetryFirstAttemptNeverReseeds) {
  int reseeds = 0;
  int calls = 0;
  const int got = retry(
      3, [&](std::size_t) { ++reseeds; },
      [&](std::size_t attempt) {
        ++calls;
        EXPECT_EQ(attempt, 0u);
        return 17;
      });
  EXPECT_EQ(got, 17);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(reseeds, 0);
}

TEST_F(FailpointTest, RetryRecoversFromRecoverableErrors) {
  const std::uint64_t recovered_before =
      metrics::counter("retry.recovered").value();
  std::vector<std::size_t> reseeded;
  const int got = retry(
      3, [&](std::size_t attempt) { reseeded.push_back(attempt); },
      [&](std::size_t attempt) -> int {
        if (attempt == 0) throw NumericalError("diverged");
        if (attempt == 1) throw TrainingError("NN", "epoch 3", "diverged");
        return 7;
      });
  EXPECT_EQ(got, 7);
  EXPECT_EQ(reseeded, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(metrics::counter("retry.recovered").value(), recovered_before + 1);
}

TEST_F(FailpointTest, RetryPropagatesNonRecoverableImmediately) {
  int calls = 0;
  EXPECT_THROW(retry(
                   3, [](std::size_t) {},
                   [&](std::size_t) -> int {
                     ++calls;
                     throw InvalidArgument("bad input");
                   }),
               InvalidArgument);
  EXPECT_EQ(calls, 1);
}

TEST_F(FailpointTest, RetryExhaustionRethrowsTheLastError) {
  const std::uint64_t exhausted_before =
      metrics::counter("retry.exhausted").value();
  int calls = 0;
  EXPECT_THROW(retry(
                   3, [](std::size_t) {},
                   [&](std::size_t) -> int {
                     ++calls;
                     throw NumericalError("still singular");
                   }),
               NumericalError);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(metrics::counter("retry.exhausted").value(), exhausted_before + 1);
}

TEST_F(FailpointTest, RetrySupportsVoidOperations) {
  int calls = 0;
  EXPECT_NO_THROW(retry(
      2, [](std::size_t) {},
      [&](std::size_t attempt) {
        ++calls;
        if (attempt == 0) throw NumericalError("once");
      }));
  EXPECT_EQ(calls, 2);
}

// --- Graceful degradation: cross-validation and Select ----------------------

TEST_F(FailpointTest, EstimateErrorToleratesAMinorityOfFoldFailures) {
  const data::Dataset ds = make_linear_data(60, 11);
  ml::ValidationOptions opt;
  opt.repeats = 5;
  failpoint::configure("estimate_error.fold=nth:2");
  const ml::ErrorEstimate est = ml::estimate_error(lr_factory(), ds, opt);
  EXPECT_EQ(est.folds.size(), 4u);
  ASSERT_EQ(est.failed.size(), 1u);
  EXPECT_EQ(est.failed[0].error_type, "NumericalError");
  EXPECT_NE(est.failed[0].message.find("estimate_error.fold"),
            std::string::npos);
  EXPECT_TRUE(std::isfinite(est.average));
  EXPECT_TRUE(std::isfinite(est.maximum));
}

TEST_F(FailpointTest, EstimateErrorThrowsWhenMostFoldsFail) {
  const data::Dataset ds = make_linear_data(60, 12);
  failpoint::configure("estimate_error.fold=err:NumericalError");
  EXPECT_THROW(ml::estimate_error(lr_factory(), ds), TrainingError);
}

TEST_F(FailpointTest, ArmedButUnmatchedFailpointIsBitIdentical) {
  // The overhead contract: arming the layer must not perturb any model
  // output until a trigger actually fires, because hits never consume
  // library RNG. Pinned by exact fold-for-fold equality.
  const data::Dataset ds = make_linear_data(90, 13);
  ml::ValidationOptions opt;
  opt.repeats = 7;
  failpoint::clear();
  const ml::ErrorEstimate clean = ml::estimate_error(lr_factory(), ds, opt);
  failpoint::configure("no.such.site=err:IoError,other=prob:0.9@1");
  const ml::ErrorEstimate armed = ml::estimate_error(lr_factory(), ds, opt);
  EXPECT_EQ(clean.folds, armed.folds);
  EXPECT_EQ(clean.average, armed.average);
  EXPECT_EQ(clean.maximum, armed.maximum);
  EXPECT_TRUE(armed.failed.empty());
}

TEST_F(FailpointTest, SelectModelConvergesDespiteAFoldFailure) {
  // The ISSUE acceptance scenario: with estimate_error.fold=nth:2 armed,
  // SelectModel::fit still converges and failures() names the fold failure.
  const data::Dataset train = make_linear_data(80, 14);
  std::vector<ml::NamedModel> candidates;
  candidates.push_back({"LR-B", lr_factory()});
  ml::SelectModel select(std::move(candidates));
  failpoint::configure("estimate_error.fold=nth:2");
  select.fit(train);
  EXPECT_TRUE(select.fitted());
  EXPECT_EQ(select.chosen_name(), "LR-B");
  ASSERT_EQ(select.failures().size(), 1u);
  EXPECT_NE(select.failures()[0].name.find("LR-B fold"), std::string::npos);
  EXPECT_EQ(select.failures()[0].error_type, "NumericalError");
}

TEST_F(FailpointTest, SelectModelSkipsACandidateWhoseEstimateFails) {
  const data::Dataset train = make_linear_data(80, 15);
  std::vector<ml::NamedModel> candidates;
  candidates.push_back({"LR-1", lr_factory()});
  candidates.push_back({"LR-2", lr_factory()});
  ml::SelectModel select(std::move(candidates));
  // Candidate estimates run concurrently, so nth:1 kills whichever candidate
  // hits first; either way exactly one survives and is chosen.
  failpoint::configure("select.candidate=nth:1");
  select.fit(train);
  EXPECT_TRUE(select.fitted());
  ASSERT_EQ(select.estimates().size(), 2u);
  const std::size_t failed =
      std::isinf(select.estimates()[0].maximum) ? 0u : 1u;
  EXPECT_TRUE(std::isinf(select.estimates()[failed].maximum));
  EXPECT_TRUE(std::isfinite(select.estimates()[1 - failed].maximum));
  ASSERT_EQ(select.failures().size(), 1u);
  EXPECT_EQ(select.chosen_name(), failed == 0 ? "LR-2" : "LR-1");
}

TEST_F(FailpointTest, SelectModelThrowsOnlyWhenEveryCandidateFails) {
  const data::Dataset train = make_linear_data(80, 16);
  std::vector<ml::NamedModel> candidates;
  candidates.push_back({"LR-1", lr_factory()});
  candidates.push_back({"LR-2", lr_factory()});
  ml::SelectModel select(std::move(candidates));
  failpoint::configure("select.candidate=err:NumericalError");
  EXPECT_THROW(select.fit(train), TrainingError);
  EXPECT_FALSE(select.fitted());
  EXPECT_EQ(select.failures().size(), 2u);
}

TEST_F(FailpointTest, SelectModelFallsBackWhenTheFinalFitFails) {
  const data::Dataset train = make_linear_data(80, 17);
  std::vector<ml::NamedModel> candidates;
  candidates.push_back({"LR-1", lr_factory()});
  candidates.push_back({"LR-2", lr_factory()});
  ml::SelectModel select(std::move(candidates));
  // Estimates are identical factories; the winner's final fit fails once, so
  // Select must fall through to the runner-up instead of dying.
  failpoint::configure("select.final_fit=nth:1");
  select.fit(train);
  EXPECT_TRUE(select.fitted());
  ASSERT_EQ(select.failures().size(), 1u);
  EXPECT_NE(select.failures()[0].name.find("final fit"), std::string::npos);
  const data::Dataset test = make_linear_data(30, 18);
  EXPECT_LT(ml::mape(select.predict(test), test.target()), 5.0);
}

// --- Recovery paths inside the models themselves ----------------------------

TEST_F(FailpointTest, LinearRegressionFallsBackToRidgeWhenTheSolveFails) {
  const data::Dataset train = make_linear_data(60, 19);
  failpoint::configure("linreg.solve=err:NumericalError");
  const std::uint64_t ridge_before =
      metrics::counter("ml.linreg_ridge_solves").value();
  ml::LinearRegression model;
  model.fit(train);  // attempt 0 is killed; the ridge retry must succeed
  EXPECT_TRUE(model.fitted());
  EXPECT_TRUE(model.ols().ridge_fallback);
  EXPECT_GT(metrics::counter("ml.linreg_ridge_solves").value(), ridge_before);
  const data::Dataset test = make_linear_data(20, 20);
  for (double p : model.predict(test)) EXPECT_TRUE(std::isfinite(p));
  // The ridge solution of a well-conditioned system is still accurate.
  EXPECT_LT(ml::mape(model.predict(test), test.target()), 5.0);
}

TEST_F(FailpointTest, NeuralTrainingRetriesAfterAPoisonedLoss) {
  const data::Dataset train = make_linear_data(50, 21);
  failpoint::configure("nn.nonfinite_loss=nth:1");
  const std::uint64_t attempts_before =
      metrics::counter("retry.attempts").value();
  ml::NeuralRegressor::Options opt;
  opt.method = ml::NnMethod::kQuick;
  opt.epoch_scale = 0.05;
  ml::NeuralRegressor model(opt);
  model.fit(train);  // first attempt diverges, the reseeded retry lands
  EXPECT_TRUE(model.fitted());
  EXPECT_GT(metrics::counter("retry.attempts").value(), attempts_before);
  for (double p : model.predict(train)) EXPECT_TRUE(std::isfinite(p));
}

// --- Crash-safe artifact writes ---------------------------------------------

TEST_F(FailpointTest, FailedAtomicWriteLeavesTheOldArtifactIntact) {
  const fs::path path =
      fs::temp_directory_path() / "dsml_fault_atomic.txt";
  const fs::path tmp = path.string() + ".tmp";
  io::write_file_atomic(path, "original contents\n");
  failpoint::configure("atomic_io.write=err:IoError");
  EXPECT_THROW(io::write_file_atomic(path, "half-written"), IoError);
  EXPECT_EQ(read_file(path), "original contents\n");
  EXPECT_FALSE(fs::exists(tmp));  // the temp file was cleaned up
  failpoint::clear();
  io::write_file_atomic(path, "replaced\n");
  EXPECT_EQ(read_file(path), "replaced\n");
  fs::remove(path);
}

TEST_F(FailpointTest, FailedModelSaveLeavesTheOldModelLoadable) {
  const fs::path path =
      fs::temp_directory_path() / "dsml_fault_model.dsml";
  const data::Dataset train = make_linear_data(40, 22);
  ml::LinearRegression model;
  model.fit(train);
  ml::save_model(model, path.string());
  const std::string original = read_file(path);
  failpoint::configure("serialize.save=err:IoError");
  EXPECT_THROW(ml::save_model(model, path.string()), IoError);
  EXPECT_EQ(read_file(path), original);
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
  failpoint::clear();
  EXPECT_NO_THROW(ml::load_model(path.string()));
  fs::remove(path);
}

// --- End-to-end: the CLI survives injected failures -------------------------

class FaultCliTest : public FailpointTest {
 protected:
  void SetUp() override {
    cache_dir_ =
        (fs::temp_directory_path() / "dsml_fault_cli_cache").string();
    ::setenv("DSML_CACHE_DIR", cache_dir_.c_str(), 1);
  }
  void TearDown() override {
    ::unsetenv("DSML_CACHE_DIR");
    fs::remove_all(cache_dir_);
    FailpointTest::TearDown();
  }
  struct CliResult {
    int exit_code;
    std::string out;
    std::string err;
  };
  static CliResult run_cli(std::vector<std::string> args) {
    std::ostringstream out;
    std::ostringstream err;
    const int code = cli::run(args, out, err);
    return {code, out.str(), err.str()};
  }
  std::string cache_dir_;
};

TEST_F(FaultCliTest, SampledExperimentSurvivesAnInjectedEvalFailure) {
  // One of the two model evaluations is killed; the run must complete,
  // print the surviving row, and summarise the tolerated failure.
  const auto result = run_cli({"--failpoints", "dse.sampled.eval=nth:1",
                               "sampled", "--app", "applu", "--rates", "0.02",
                               "--models", "LR-B,LR-S", "--full", "40000",
                               "--interval", "4000", "--clusters", "2"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("1 failure(s) tolerated"), std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("NumericalError"), std::string::npos);
  // The scoped arming did not leak past the command.
  EXPECT_FALSE(failpoint::enabled());
}

TEST_F(FaultCliTest, ChronoExperimentSurvivesAnInjectedEvalFailure) {
  const auto result =
      run_cli({"--failpoints", "dse.chrono.eval=nth:1", "chrono", "--family",
               "pd", "--models", "LR-E,LR-S"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("1 failure(s) tolerated"), std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("best:"), std::string::npos);
}

}  // namespace
}  // namespace dsml
