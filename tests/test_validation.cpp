#include "ml/validation.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "data/split.hpp"
#include "ml/linreg.hpp"
#include "ml/metrics.hpp"
#include "ml/model_zoo.hpp"
#include "ml/nn_models.hpp"

namespace dsml::ml {
namespace {

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

ModelFactory lr_factory() {
  return []() -> std::unique_ptr<Regressor> {
    return std::make_unique<LinearRegression>();
  };
}

/// The historical serial estimate_error loop: one Rng, splits consumed in
/// repeat order, fit/predict per fold. Returns the fold errors.
std::vector<double> serial_folds(const ModelFactory& factory,
                                 const data::Dataset& ds,
                                 const ValidationOptions& opt) {
  Rng rng(opt.seed);
  std::vector<double> folds;
  for (std::size_t rep = 0; rep < opt.repeats; ++rep) {
    const auto [fit_idx, holdout_idx] = data::split_half(ds.n_rows(), rng);
    const data::Dataset fit_part = ds.select_rows(fit_idx);
    const data::Dataset holdout_part = ds.select_rows(holdout_idx);
    auto model = factory();
    model->fit(fit_part);
    folds.push_back(mape(model->predict(holdout_part), holdout_part.target()));
  }
  return folds;
}

/// A deliberately bad model: always predicts a constant far from the data.
class BadModel final : public Regressor {
 public:
  void fit(const data::Dataset&) override { fitted_ = true; }
  std::vector<double> predict(const data::Dataset& ds) const override {
    return std::vector<double>(ds.n_rows(), 1.0);
  }
  std::string name() const override { return "Bad"; }
  bool fitted() const noexcept override { return fitted_; }

 private:
  bool fitted_ = false;
};

TEST(EstimateError, ProducesRequestedFolds) {
  const data::Dataset ds = make_linear_data(60, 1);
  ValidationOptions opt;
  opt.repeats = 5;
  const ErrorEstimate est = estimate_error(lr_factory(), ds, opt);
  EXPECT_EQ(est.folds.size(), 5u);
  EXPECT_GE(est.maximum, est.average);
  for (double f : est.folds) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, est.maximum);
  }
}

TEST(EstimateError, LowForWellSpecifiedModel) {
  const data::Dataset ds = make_linear_data(120, 2);
  const ErrorEstimate est = estimate_error(lr_factory(), ds);
  EXPECT_LT(est.maximum, 3.0);
}

TEST(EstimateError, DeterministicGivenSeed) {
  const data::Dataset ds = make_linear_data(60, 3);
  ValidationOptions opt;
  opt.seed = 77;
  const ErrorEstimate a = estimate_error(lr_factory(), ds, opt);
  const ErrorEstimate b = estimate_error(lr_factory(), ds, opt);
  EXPECT_EQ(a.folds, b.folds);
}

TEST(EstimateError, EstimateErrorMatchesSerialReference) {
  // estimate_error runs its folds across the thread pool; serial_folds is
  // the historical serial loop. The parallel implementation must reproduce
  // it bit-for-bit at any thread count — splits are pre-drawn serially and
  // each fold writes only its own slot.
  const data::Dataset ds = make_linear_data(90, 8);
  ValidationOptions opt;
  opt.repeats = 7;
  opt.seed = 4242;

  const std::vector<double> serial = serial_folds(lr_factory(), ds, opt);
  const ErrorEstimate est = estimate_error(lr_factory(), ds, opt);
  ASSERT_EQ(est.folds.size(), serial.size());
  for (std::size_t rep = 0; rep < serial.size(); ++rep) {
    EXPECT_EQ(est.folds[rep], serial[rep]) << "fold " << rep;
  }
  EXPECT_EQ(est.average, stats::mean(serial));
  EXPECT_EQ(est.maximum, stats::max(serial));
}

TEST(EstimateError, TooFewRowsThrows) {
  const data::Dataset ds = make_linear_data(6, 4);
  EXPECT_THROW(estimate_error(lr_factory(), ds), InvalidArgument);
}

TEST(EstimateError, ZeroRepeatsThrows) {
  const data::Dataset ds = make_linear_data(30, 5);
  ValidationOptions opt;
  opt.repeats = 0;
  EXPECT_THROW(estimate_error(lr_factory(), ds, opt), InvalidArgument);
}

TEST(SelectModel, PicksTheBetterCandidate) {
  const data::Dataset train = make_linear_data(100, 6);
  std::vector<NamedModel> candidates;
  candidates.push_back({"LR-B", lr_factory()});
  candidates.push_back({"Bad", []() -> std::unique_ptr<Regressor> {
                          return std::make_unique<BadModel>();
                        }});
  SelectModel select(std::move(candidates));
  select.fit(train);
  EXPECT_EQ(select.chosen_name(), "LR-B");
  EXPECT_EQ(select.name(), "Select(LR-B)");
  // Its predictions behave like the chosen model's.
  const data::Dataset test = make_linear_data(40, 7);
  EXPECT_LT(mape(select.predict(test), test.target()), 3.0);
}

TEST(SelectModel, ExposesPerCandidateEstimates) {
  const data::Dataset train = make_linear_data(80, 8);
  std::vector<NamedModel> candidates;
  candidates.push_back({"LR-B", lr_factory()});
  candidates.push_back({"Bad", []() -> std::unique_ptr<Regressor> {
                          return std::make_unique<BadModel>();
                        }});
  SelectModel select(std::move(candidates));
  select.fit(train);
  ASSERT_EQ(select.estimates().size(), 2u);
  EXPECT_LT(select.estimates()[0].maximum, select.estimates()[1].maximum);
  EXPECT_DOUBLE_EQ(select.chosen_estimate().maximum,
                   select.estimates()[0].maximum);

  // The sampled-DSE menu: candidates are scored across the pool, yet each
  // estimate must equal the serial loop seeded seed + i for candidate i,
  // and the choice must be the serial loop's first minimum of the maxima.
  ZooOptions zoo;
  zoo.nn_epoch_scale = 0.05;
  ValidationOptions vopt;
  vopt.seed = 4321;
  const std::vector<NamedModel> menu = sampled_dse_menu(zoo);
  SelectModel menu_select(menu, vopt);
  menu_select.fit(train);
  ASSERT_EQ(menu_select.estimates().size(), menu.size());
  std::vector<double> maxima;
  for (std::size_t i = 0; i < menu.size(); ++i) {
    ValidationOptions candidate = vopt;
    candidate.seed = vopt.seed + i;
    const std::vector<double> folds =
        serial_folds(menu[i].make, train, candidate);
    EXPECT_EQ(menu_select.estimates()[i].folds, folds) << menu[i].name;
    maxima.push_back(stats::max(folds));
  }
  const auto best = std::min_element(maxima.begin(), maxima.end());
  EXPECT_EQ(menu_select.chosen_name(),
            menu[static_cast<std::size_t>(best - maxima.begin())].name);
}

TEST(SelectModel, UnfittedBehaviour) {
  std::vector<NamedModel> candidates;
  candidates.push_back({"LR-B", lr_factory()});
  SelectModel select(std::move(candidates));
  EXPECT_FALSE(select.fitted());
  EXPECT_EQ(select.name(), "Select");
  const data::Dataset ds = make_linear_data(20, 9);
  EXPECT_THROW(select.predict(ds), InvalidArgument);
  EXPECT_THROW(select.chosen_name(), InvalidArgument);
}

TEST(SelectModel, EmptyCandidatesThrows) {
  EXPECT_THROW(SelectModel({}), InvalidArgument);
}

TEST(SelectModel, ImportanceDelegatesToChosen) {
  const data::Dataset train = make_linear_data(100, 10);
  std::vector<NamedModel> candidates;
  candidates.push_back({"LR-B", lr_factory()});
  SelectModel select(std::move(candidates));
  select.fit(train);
  EXPECT_FALSE(select.importance().empty());
}

}  // namespace
}  // namespace dsml::ml
