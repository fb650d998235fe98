// Micro-benchmarks of model construction cost (google-benchmark).
//
// The paper reports that linear regression models build in milliseconds,
// NN-S in seconds, and NN-E "up to tens of minutes" on the largest inputs —
// i.e. LR ≪ NN-S ≪ NN-E. These benchmarks verify that ordering holds for
// our implementations (absolute times differ: our data sets are smaller and
// epoch budgets tuned for them).
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "data/split.hpp"
#include "ml/mlp_trainer.hpp"
#include "ml/model_zoo.hpp"
#include "specdata/generator.hpp"

namespace {

using namespace dsml;

const data::Dataset& train_data() {
  static const data::Dataset dataset = [] {
    specdata::GeneratorOptions options;
    options.seed = 99;
    const auto records =
        specdata::generate_family(specdata::Family::kXeon, options);
    auto [train, test] = specdata::chronological_split(records, 2005);
    return train;
  }();
  return dataset;
}

void fit_model(benchmark::State& state, const char* name) {
  const data::Dataset& train = train_data();
  for (auto _ : state) {
    auto model = ml::make_model(name).make();
    model->fit(train);
    benchmark::DoNotOptimize(model);
  }
}

void BM_FitLinearRegressionEnter(benchmark::State& state) {
  fit_model(state, "LR-E");
}
void BM_FitLinearRegressionBackward(benchmark::State& state) {
  fit_model(state, "LR-B");
}
void BM_FitNnSingle(benchmark::State& state) { fit_model(state, "NN-S"); }
void BM_FitNnQuick(benchmark::State& state) { fit_model(state, "NN-Q"); }
void BM_FitNnExhaustivePrune(benchmark::State& state) {
  fit_model(state, "NN-E");
}

void BM_PredictLinearRegression(benchmark::State& state) {
  const data::Dataset& train = train_data();
  auto model = ml::make_model("LR-B").make();
  model->fit(train);
  for (auto _ : state) {
    auto out = model->predict(train);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(train.n_rows()));
}

// The per-fold select_rows copies inside ml::estimate_error. Each fold
// materializes a fit half and a holdout half; keeping those copies (rather
// than teaching every model a row-index view) is justified by this number:
// one split costs microseconds while the fold's model fit costs milliseconds
// to seconds (see BM_Fit* above and docs/PERFORMANCE.md).
void BM_SelectRowsHalfSplit(benchmark::State& state) {
  const data::Dataset& train = train_data();
  Rng rng(7);
  const auto halves = data::split_half(train.n_rows(), rng);
  for (auto _ : state) {
    auto fit_part = train.select_rows(halves.first);
    auto holdout_part = train.select_rows(halves.second);
    benchmark::DoNotOptimize(fit_part);
    benchmark::DoNotOptimize(holdout_part);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(train.n_rows()));
}

void BM_PredictNeuralNetwork(benchmark::State& state) {
  const data::Dataset& train = train_data();
  auto model = ml::make_model("NN-S").make();
  model->fit(train);
  for (auto _ : state) {
    auto out = model->predict(train);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(train.n_rows()));
}

// NN-E's wide topology menu for a 21-input fit, trained through
// ml::MlpTrainer with the Arg-lane step: hidden {5}, {10}, {21}, {10, 5},
// {31}, {42} and {21, 10} on 12 learning and 11 validation rows (sets as
// small as an adaptive campaign's, whose epochs average about ten samples),
// 50 epochs each with a validation pass and a snapshot after every epoch,
// as train_candidate runs them. Skipped for a width the host lacks; compare
// the rows to see what each width buys.
void BM_TrainerMenu(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  if (!ml::MlpTrainer::lanes_supported(lanes)) {
    state.SkipWithError("no step of this width on this host");
    return;
  }
  constexpr std::size_t kInputs = 21;
  Rng rng(5);
  linalg::Matrix xl(12, kInputs);
  linalg::Matrix xv(11, kInputs);
  std::vector<double> yl(xl.rows());
  std::vector<double> yv(xv.rows());
  for (double& v : xl.data()) v = rng.uniform();
  for (double& v : xv.data()) v = rng.uniform();
  for (double& v : yl) v = rng.uniform();
  for (double& v : yv) v = rng.uniform();
  const std::vector<std::vector<std::size_t>> menu = {
      {5}, {10}, {21}, {10, 5}, {31}, {42}, {21, 10}};
  std::vector<ml::Mlp> starts;
  for (const auto& hidden : menu) starts.emplace_back(kInputs, hidden, rng);
  for (auto _ : state) {
    Rng order(9);
    double best = 0.0;
    for (const ml::Mlp& start : starts) {
      ml::MlpTrainer trainer(start, lanes);
      best = trainer.mse(xv, yv);
      for (int epoch = 0; epoch < 50; ++epoch) {
        trainer.train_epoch(xl, yl, 0.1, 0.9, order);
        const double val = trainer.mse(xv, yv);
        if (val < best) {
          trainer.keep_best();
          best = val;
        }
      }
      ml::Mlp kept = trainer.best();
      benchmark::DoNotOptimize(kept);
    }
    benchmark::DoNotOptimize(best);
  }
}

BENCHMARK(BM_FitLinearRegressionEnter)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FitLinearRegressionBackward)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FitNnSingle)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FitNnQuick)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FitNnExhaustivePrune)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SelectRowsHalfSplit)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PredictLinearRegression)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PredictNeuralNetwork)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TrainerMenu)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
