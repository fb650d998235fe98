// The neural-network fit golden: exact outputs of the training paths that
// run parallel loops inside parallel loops. NN-M's and NN-E's topology
// menus, estimate_error's folds, and one fit_and_score cell (its folds beside
// its final fit, then a score) are printed as %.17g, so any change in the
// order of floating-point work shows. The golden must hold when the paths
// are called from the main thread and from inside a pool task, where every
// loop is nested one level deeper.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ml/fit_score.hpp"
#include "ml/model_zoo.hpp"
#include "ml/validation.hpp"

#ifndef DSML_REPO_ROOT
#error "DSML_REPO_ROOT must be defined by the build"
#endif

namespace dsml::ml {
namespace {

// Six inputs: enough for the menus' two-layer topologies.
constexpr const char* kFeatures[] = {"x0", "x1", "x2", "x3", "x4", "x5"};

/// Six uniform predictors and a polynomial target with a little noise.
data::Dataset make_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> x(std::size(kFeatures),
                                     std::vector<double>(n));
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& column : x) column[i] = rng.uniform(0.0, 1.0);
    y[i] = 100.0 + 40.0 * x[0][i] * x[0][i] + 25.0 * x[1][i] * x[2][i] -
           15.0 * x[3][i] + 5.0 * x[4][i] * x[4][i] * x[4][i] +
           rng.gaussian(0.0, 0.5);
  }
  data::Dataset ds;
  for (std::size_t f = 0; f < x.size(); ++f) {
    ds.add_feature(data::Column::numeric(kFeatures[f], std::move(x[f])));
  }
  ds.set_target("y", std::move(y));
  return ds;
}

const data::Dataset& train_data() {
  static const data::Dataset ds = make_data(48, 501);
  return ds;
}

const data::Dataset& score_data() {
  static const data::Dataset ds = make_data(16, 502);
  return ds;
}

NamedModel small_model(const std::string& name) {
  ZooOptions zoo;
  zoo.nn_epoch_scale = 0.25;
  return make_model(name, zoo);
}

std::string line(const std::string& head, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " %.17g", value);
  return head + buf;
}

void add_predictions(std::vector<std::string>& lines, const std::string& head,
                     const std::vector<double>& predictions) {
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    lines.push_back(line(head + " " + std::to_string(i), predictions[i]));
  }
}

/// Every golden line, computed on the calling thread.
std::vector<std::string> compute_lines() {
  std::vector<std::string> lines;
  for (const char* name : {"NN-M", "NN-E"}) {
    auto model = small_model(name).make();
    model->fit(train_data());
    add_predictions(lines, std::string("predict ") + name,
                    model->predict(score_data()));
  }

  ValidationOptions validation;
  validation.seed = 77;
  const ErrorEstimate est =
      estimate_error(small_model("NN-M").make, train_data(), validation);
  for (std::size_t k = 0; k < est.folds.size(); ++k) {
    lines.push_back(line("fold NN-M " + std::to_string(k), est.folds[k]));
  }

  engine::FitScoreRequest request;
  request.model = small_model("NN-E");
  request.train = &train_data();
  request.estimate = true;
  request.validation.seed = 78;
  request.score = &score_data();
  const engine::FitScoreResult cell = engine::fit_and_score(request);
  if (!cell.ok()) {
    lines.push_back("cell NN-E failed: " + cell.failure->message);
    return lines;
  }
  for (std::size_t k = 0; k < cell.estimate.folds.size(); ++k) {
    lines.push_back(
        line("cell NN-E fold " + std::to_string(k), cell.estimate.folds[k]));
  }
  lines.push_back(line("cell NN-E average", cell.estimate.average));
  lines.push_back(line("cell NN-E maximum", cell.estimate.maximum));
  add_predictions(lines, "cell NN-E predict", cell.predictions);
  return lines;
}

/// The golden's data lines, comments dropped.
std::vector<std::string> golden_lines() {
  const std::string path =
      std::string(DSML_REPO_ROOT) + "/tests/data/ml/nn_fit_golden.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> lines;
  for (std::string text; std::getline(in, text);) {
    if (!text.empty() && text[0] != '#') lines.push_back(text);
  }
  return lines;
}

/// Compares computed lines with the golden, reporting each difference with
/// the value computed.
void expect_golden(const std::vector<std::string>& computed,
                   const std::string& context) {
  const std::vector<std::string> golden = golden_lines();
  ASSERT_EQ(computed.size(), golden.size()) << context;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(computed[i], golden[i]) << context << ", golden line " << i;
  }
}

TEST(NnFitGolden, MatchesFromTheMainThread) {
  expect_golden(compute_lines(), "main thread");
}

TEST(NnFitGolden, MatchesFromInsideAPoolTask) {
  std::vector<std::string> lines;
  ThreadPool::global().submit([&] { lines = compute_lines(); }).get();
  expect_golden(lines, "pool task");
}

/// Every fit throws. A fit on the full training sample throws at once; a
/// cross-validation fold (half the rows) throws a little later, so a cell
/// that reported whichever stage failed first would report the fit.
class AlwaysFails final : public Regressor {
 public:
  void fit(const data::Dataset& train) override {
    if (train.n_rows() < train_data().n_rows()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    throw NumericalError("fit always fails");
  }
  std::vector<double> predict(const data::Dataset&) const override {
    throw StateError("AlwaysFails::predict: not fitted");
  }
  std::string name() const override { return "FAIL"; }
  bool fitted() const noexcept override { return false; }
};

TEST(NnFitGolden, CellReportsTheEstimateFailureBeforeTheFitFailure) {
  engine::FitScoreRequest request;
  request.model = {"FAIL", [] { return std::make_unique<AlwaysFails>(); }};
  request.train = &train_data();
  request.estimate = true;
  request.score = &score_data();
  const engine::FitScoreResult cell = engine::fit_and_score(request);
  ASSERT_FALSE(cell.ok());
  EXPECT_EQ(cell.failure->name, "FAIL");
  EXPECT_EQ(cell.failure->error_type, "TrainingError");
  EXPECT_NE(cell.failure->message.find("5 of 5 folds failed"),
            std::string::npos)
      << cell.failure->message;
  EXPECT_EQ(cell.model, nullptr);
  EXPECT_TRUE(cell.predictions.empty());
}

}  // namespace
}  // namespace dsml::ml
