#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "common/metrics.hpp"
#include "dse/chronological.hpp"
#include "dse/sampled.hpp"
#include "dse/sweep.hpp"

namespace dsml::dse {
namespace {

// Tiny sweep options so tests stay fast; results are still the full 4608
// configurations, just simulated on a short trace.
SweepOptions tiny_sweep(bool use_cache = false) {
  SweepOptions opt;
  opt.full_trace_instructions = 40000;
  opt.interval_instructions = 4000;
  opt.max_clusters = 2;
  opt.use_cache = use_cache;
  opt.cache_dir = (std::filesystem::temp_directory_path() /
                   "dsml_dse_test_cache").string();
  return opt;
}

TEST(Sweep, CoversFullDesignSpace) {
  const SweepResult sweep = run_design_space_sweep("applu", tiny_sweep());
  EXPECT_EQ(sweep.cycles.size(), sim::kDesignSpaceSize);
  for (double c : sweep.cycles) EXPECT_GT(c, 0.0);
  EXPECT_GE(sweep.simpoint_count, 1u);
  EXPECT_FALSE(sweep.from_cache);
  EXPECT_GT(sweep.seconds, 0.0);
}

TEST(Sweep, CountsFunctionalAndTimingPasses) {
  metrics::Counter& functional = metrics::counter("sim.functional_passes");
  metrics::Counter& timing = metrics::counter("sim.timing_passes");
  metrics::Counter& simulated = metrics::counter("dse.configs_simulated");
  const std::uint64_t functional0 = functional.value();
  const std::uint64_t timing0 = timing.value();
  const std::uint64_t simulated0 = simulated.value();
  run_design_space_sweep("gcc", tiny_sweep());
  // 144 cache geometries x (3 predictors x 2 issue_wrong + perfect) keys;
  // each key times 4 width/core pairs, perfect twins sharing one pass.
  EXPECT_EQ(functional.value() - functional0, 1008u);
  EXPECT_EQ(timing.value() - timing0, 4032u);
  EXPECT_EQ(simulated.value() - simulated0, sim::kDesignSpaceSize);
}

TEST(Sweep, CacheRoundTrip) {
  const SweepOptions opt = tiny_sweep(true);
  std::filesystem::remove_all(opt.cache_dir);
  const SweepResult fresh = run_design_space_sweep("mcf", opt);
  EXPECT_FALSE(fresh.from_cache);
  const SweepResult cached = run_design_space_sweep("mcf", opt);
  EXPECT_TRUE(cached.from_cache);
  ASSERT_EQ(cached.cycles.size(), fresh.cycles.size());
  for (std::size_t i = 0; i < fresh.cycles.size(); ++i) {
    EXPECT_DOUBLE_EQ(cached.cycles[i], fresh.cycles[i]);
  }
  EXPECT_EQ(cached.simpoint_count, fresh.simpoint_count);
  std::filesystem::remove_all(opt.cache_dir);
}

TEST(Sweep, DatasetHasTargetAndFeatures) {
  const SweepResult sweep = run_design_space_sweep("applu", tiny_sweep());
  const data::Dataset ds = sweep_dataset(sweep);
  EXPECT_EQ(ds.n_rows(), sim::kDesignSpaceSize);
  EXPECT_EQ(ds.n_features(), 24u);
  EXPECT_TRUE(ds.has_target());
}

TEST(Sweep, UnknownAppThrows) {
  EXPECT_THROW(run_design_space_sweep("fortnite", tiny_sweep()),
               InvalidArgument);
}

TEST(Sweep, ResolveCacheDirPrecedence) {
  EXPECT_EQ(resolve_cache_dir("/explicit"), "/explicit");
  ::setenv("DSML_CACHE_DIR", "/from_env", 1);
  EXPECT_EQ(resolve_cache_dir(""), "/from_env");
  ::unsetenv("DSML_CACHE_DIR");
  EXPECT_EQ(resolve_cache_dir(""), ".dsml_cache");
}

TEST(SampledDse, StructureAndSelect) {
  const SweepResult sweep = run_design_space_sweep("applu", tiny_sweep());
  const data::Dataset full = sweep_dataset(sweep);
  SampledDseOptions opt;
  opt.sampling_rates = {0.01, 0.02};
  opt.model_names = {"LR-B", "NN-S"};
  opt.zoo.nn_epoch_scale = 0.2;
  const SampledDseResult result = run_sampled_dse(full, "applu", opt);
  EXPECT_EQ(result.app, "applu");
  EXPECT_EQ(result.runs.size(), 4u);       // 2 rates x 2 models
  EXPECT_EQ(result.select.size(), 2u);     // one per rate
  for (const auto& run : result.runs) {
    EXPECT_GE(run.true_error, 0.0);
    EXPECT_GE(run.estimated_error_max, run.estimated_error_avg);
    EXPECT_GE(run.fit_seconds, 0.0);
  }
  for (const auto& sel : result.select) {
    EXPECT_TRUE(sel.chosen_model == "LR-B" || sel.chosen_model == "NN-S");
    // Select's true error equals the chosen model's true error at that rate.
    EXPECT_DOUBLE_EQ(sel.true_error,
                     result.run(sel.chosen_model, sel.rate).true_error);
  }
}

TEST(SampledDse, RunLookupThrowsOnMiss) {
  SampledDseResult result;
  EXPECT_THROW(result.run("NN-E", 0.01), InvalidArgument);
}

TEST(SampledDse, RequiresTargetAndMenus) {
  const SweepResult sweep = run_design_space_sweep("applu", tiny_sweep());
  data::Dataset no_target = sim::make_config_dataset(
      sim::enumerate_design_space());
  SampledDseOptions opt;
  EXPECT_THROW(run_sampled_dse(no_target, "x", opt), InvalidArgument);
  const data::Dataset full = sweep_dataset(sweep);
  opt.sampling_rates = {};
  EXPECT_THROW(run_sampled_dse(full, "x", opt), InvalidArgument);
}

TEST(Chronological, NineModelsByDefault) {
  ChronologicalOptions opt;
  opt.zoo.nn_epoch_scale = 0.15;
  opt.generator.record_scale = 0.6;
  const ChronologicalResult result =
      run_chronological(specdata::Family::kXeon, opt);
  EXPECT_EQ(result.models.size(), 9u);
  EXPECT_GT(result.train_rows, 0u);
  EXPECT_GT(result.test_rows, 0u);
  for (const auto& m : result.models) {
    EXPECT_GE(m.error.mean, 0.0);
    EXPECT_LT(m.error.mean, 100.0) << m.model;
  }
  EXPECT_FALSE(result.nn_importance.empty());
  EXPECT_FALSE(result.lr_importance.empty());
}

TEST(Chronological, BestAndTies) {
  ChronologicalResult result;
  result.models.push_back({"A", {3.0, 1.0, 5.0, 10}, 0.0});
  result.models.push_back({"B", {2.0, 1.0, 5.0, 10}, 0.0});
  result.models.push_back({"C", {2.05, 1.0, 5.0, 10}, 0.0});
  EXPECT_EQ(result.best().model, "B");
  const auto ties = result.best_names(0.1);
  ASSERT_EQ(ties.size(), 2u);
  EXPECT_EQ(ties[0], "B");
  EXPECT_EQ(ties[1], "C");
}

TEST(Chronological, CustomModelMenu) {
  ChronologicalOptions opt;
  opt.model_names = {"LR-E", "LR-S"};
  const ChronologicalResult result =
      run_chronological(specdata::Family::kOpteron, opt);
  ASSERT_EQ(result.models.size(), 2u);
  EXPECT_EQ(result.models[0].model, "LR-E");
  // LR models only: no NN importance recorded.
  EXPECT_TRUE(result.nn_importance.empty());
  EXPECT_FALSE(result.lr_importance.empty());
}

TEST(Chronological, LinearRegressionIsAccurate) {
  // The headline chronological claim: LR predicts next-year systems within a
  // few percent.
  ChronologicalOptions opt;
  opt.model_names = {"LR-E"};
  const ChronologicalResult result =
      run_chronological(specdata::Family::kXeon, opt);
  EXPECT_LT(result.best().error.mean, 5.0);
}

}  // namespace
}  // namespace dsml::dse
