#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "dse/chronological.hpp"
#include "dse/sampled.hpp"
#include "dse/sweep.hpp"
#include "sim/timing_kernel.hpp"

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
  metrics::Counter& lanes = metrics::counter("sim.lane_passes");
  metrics::Counter& l1 = metrics::counter("sim.l1_passes");
  metrics::Counter& l2 = metrics::counter("sim.l2_passes");
  metrics::Counter& instructions = metrics::counter("sim.instructions");
  metrics::Counter& simulated = metrics::counter("dse.configs_simulated");
  const std::uint64_t functional0 = functional.value();
  const std::uint64_t timing0 = timing.value();
  const std::uint64_t lanes0 = lanes.value();
  const std::uint64_t l10 = l1.value();
  const std::uint64_t l20 = l2.value();
  const std::uint64_t instructions0 = instructions.value();
  const std::uint64_t simulated0 = simulated.value();
  metrics::Gauge& lane_width = metrics::gauge("sim.lane_width");
  lane_width.set(0);
  const SweepResult sweep = run_design_space_sweep("gcc", tiny_sweep());
  // 144 cache geometries x (3 predictors x 2 issue_wrong + perfect) keys,
  // two to an L2 key, which composes one outcome stream for both. Each key
  // times 4 width/core pairs, perfect twins sharing one pass, so an L2 key
  // times 8 configurations: one eight-lane pass with AVX-512F, two
  // four-lane passes with AVX2, one-lane passes otherwise.
  const std::size_t width = sim::detail::lane_width();
  EXPECT_EQ(lane_width.value(), static_cast<double>(width));
  EXPECT_EQ(functional.value() - functional0, 504u);
  EXPECT_EQ(timing.value() - timing0, 4032u);
  EXPECT_EQ(lanes.value() - lanes0,
            width == 8 ? 504u : width == 4 ? 1008u : 0u);
  // 6 L1D geometries and 6 L1I geometries x 7 predictor/issue_wrong
  // pairs; one L2 walk per key without its L3.
  EXPECT_EQ(l1.value() - l10, 48u);
  EXPECT_EQ(l2.value() - l20, 504u);
  EXPECT_EQ(instructions.value() - instructions0,
            sim::kDesignSpaceSize * sweep.simulated_instructions);
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

std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_text(const std::filesystem::path& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/// `csv` with cell `col` of data row `row` (the header is not a data row)
/// replaced by `value`.
std::string with_cell(const std::string& csv, std::size_t row, std::size_t col,
                      const std::string& value) {
  std::size_t begin = csv.find('\n') + 1;
  for (std::size_t r = 0; r < row; ++r) begin = csv.find('\n', begin) + 1;
  for (std::size_t c = 0; c < col; ++c) begin = csv.find(',', begin) + 1;
  const std::size_t end = csv.find_first_of(",\n", begin);
  return csv.substr(0, begin) + value + csv.substr(end);
}

class CorruptSweepCache : public ::testing::Test {
 protected:
  void SetUp() override {
    opt_ = tiny_sweep(true);
    opt_.full_trace_instructions = 20000;
    opt_.interval_instructions = 2000;
    // One directory per test: ctest runs the tests as parallel processes,
    // and one test's SetUp must not empty another test's cache.
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    opt_.cache_dir = (std::filesystem::temp_directory_path() /
                      ("dsml_dse_corrupt_cache_" + test))
                         .string();
    std::filesystem::remove_all(opt_.cache_dir);
    fresh_ = run_design_space_sweep("mcf", opt_);
    for (const auto& entry :
         std::filesystem::directory_iterator(opt_.cache_dir)) {
      file_ = entry.path();  // the one table the sweep stored
    }
    good_ = read_text(file_);
    ASSERT_FALSE(good_.empty());
  }
  void TearDown() override { std::filesystem::remove_all(opt_.cache_dir); }

  /// Runs the sweep on a cache holding `text`: it must re-simulate the
  /// fresh table, count one load failure, and rewrite the cache.
  void expect_resimulated(const std::string& text, const std::string& what) {
    write_text(file_, text);
    const std::uint64_t failures0 = failures_.value();
    const SweepResult sweep = run_design_space_sweep("mcf", opt_);
    EXPECT_FALSE(sweep.from_cache) << what;
    EXPECT_EQ(sweep.cycles, fresh_.cycles) << what;
    EXPECT_EQ(sweep.simpoint_count, fresh_.simpoint_count) << what;
    EXPECT_EQ(sweep.simulated_instructions, fresh_.simulated_instructions)
        << what;
    EXPECT_EQ(failures_.value() - failures0, 1u) << what;
    EXPECT_EQ(read_text(file_), good_) << what;
  }

  SweepOptions opt_;
  SweepResult fresh_;
  std::filesystem::path file_;
  std::string good_;
  metrics::Counter& failures_ = metrics::counter("dse.cache_load_failures");
};

TEST_F(CorruptSweepCache, BadCellsAreResimulated) {
  // Columns: config, cycles, simpoints, instructions.
  const std::pair<std::string, std::string> cases[] = {
      {"nan and negative cycles",
       with_cell(with_cell(good_, 0, 1, "nan"), 1, 1, "-5")},
      {"nan cycles", with_cell(good_, 0, 1, "nan")},
      {"negative cycles", with_cell(good_, 1, 1, "-5")},
      {"infinite cycles", with_cell(good_, 2, 1, "inf")},
      {"fractional cycles", with_cell(good_, 3, 1, "1234.5")},
      {"zero cycles", with_cell(good_, 4, 1, "0")},
      {"non-numeric cycles", with_cell(good_, 5, 1, "fast")},
      {"configs out of order", with_cell(good_, 6, 0, "7")},
      {"negative simpoints", with_cell(good_, 0, 2, "-2")},
      {"huge instructions", with_cell(good_, 0, 3, "1e30")},
      {"rows disagree on simpoints", with_cell(good_, 9, 2, "99")},
      {"rows disagree on instructions",
       with_cell(good_, sim::kDesignSpaceSize - 1, 3, "1")},
      {"truncated to half", good_.substr(0, good_.size() / 2)},
      {"truncated inside the last row", good_.substr(0, good_.size() - 3)},
  };
  for (const auto& [what, text] : cases) {
    ASSERT_NE(text, good_) << what;
    expect_resimulated(text, what);
  }
}

TEST_F(CorruptSweepCache, LoadFailpointIsResimulated) {
  failpoint::ScopedFailpoints armed("dse.sweep.cache_load=nth:1");
  expect_resimulated(good_, "dse.sweep.cache_load");
}

TEST_F(CorruptSweepCache, ShardSliceSkipsACorruptCache) {
  write_text(file_, with_cell(good_, 0, 1, "nan"));
  const std::uint64_t failures0 = failures_.value();
  const std::vector<std::size_t> indices{0, 1, 4607};
  const SweepShard shard = run_sweep_shard("mcf", opt_, indices);
  EXPECT_EQ(failures_.value() - failures0, 1u);
  ASSERT_EQ(shard.cycles.size(), indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(shard.cycles[i], fresh_.cycles[indices[i]]) << indices[i];
  }
  EXPECT_EQ(shard.simpoint_count, fresh_.simpoint_count);
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

  // Drift gate: at full epoch budgets, each model's mean error stays within
  // 5 % (relative) of its committed value. A non-finite error fails.
  const struct {
    const char* model;
    double error;
  } committed[] = {{"LR-E", 2.2635661196628662},
                   {"LR-S", 2.2541097948003324},
                   {"LR-F", 2.2541097948003324},
                   {"LR-B", 2.2541097948003324},
                   {"NN-Q", 3.9474210033760317}};
  opt.model_names.clear();
  for (const auto& c : committed) opt.model_names.emplace_back(c.model);
  const ChronologicalResult gated =
      run_chronological(specdata::Family::kXeon, opt);
  ASSERT_EQ(gated.models.size(), std::size(committed));
  for (std::size_t i = 0; i < std::size(committed); ++i) {
    const std::string model = committed[i].model;
    const double error = gated.models[i].error.mean;
    EXPECT_EQ(gated.models[i].model, model);
    EXPECT_TRUE(std::isfinite(error)) << model << " error " << error;
    const double drift = std::abs(error - committed[i].error) /
                         std::max(std::abs(committed[i].error), 1e-12);
    EXPECT_LE(drift, 0.05) << model << " error drifted from "
                           << committed[i].error << " to " << error;
  }
}

}  // namespace
}  // namespace dsml::dse
