// Micro-benchmarks of model construction cost (google-benchmark).
//
// The paper reports that linear regression models build in milliseconds,
// NN-S in seconds, and NN-E "up to tens of minutes" on the largest inputs —
// i.e. LR ≪ NN-S ≪ NN-E. These benchmarks verify that ordering holds for
// our implementations (absolute times differ: our data sets are smaller and
// epoch budgets tuned for them).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "data/split.hpp"
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

BENCHMARK(BM_FitLinearRegressionEnter)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FitLinearRegressionBackward)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FitNnSingle)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FitNnQuick)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FitNnExhaustivePrune)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SelectRowsHalfSplit)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PredictLinearRegression)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PredictNeuralNetwork)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
