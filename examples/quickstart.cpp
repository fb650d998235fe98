// Quickstart: fit a performance surrogate from a handful of simulations and
// use it to predict configurations you never simulated.
//
//   $ ./examples/quickstart
//
// This walks the library's core loop end to end:
//   1. synthesize a workload trace (here: the gcc-like profile);
//   2. simulate a SMALL random sample of the 4608-point design space;
//   3. train a neural-network surrogate (NN-E, the paper's best);
//   4. predict the cycle count of unseen configurations and check a few
//      against the simulator.
#include <cstdio>

#include "common/rng.hpp"
#include "data/split.hpp"
#include "ml/metrics.hpp"
#include "ml/model_zoo.hpp"
#include "sim/core.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

int main() {
  using namespace dsml;

  // 1. A synthetic gcc-like instruction trace (50K instructions keeps this
  //    example fast; the benches use SimPoint-reduced multi-100K traces).
  const workload::AppProfile profile = workload::spec_profile("gcc");
  const sim::Trace trace = workload::generate_trace(profile, 50'000);
  std::printf("workload: %s, %zu instructions\n", profile.name.c_str(),
              trace.size());

  // 2. Simulate a 2%% random sample of the design space.
  const std::vector<sim::ProcessorConfig> space =
      sim::enumerate_design_space();
  Rng rng(42);
  const std::vector<std::size_t> sample =
      data::sample_fraction(space.size(), 0.02, rng);
  std::printf("simulating %zu of %zu configurations...\n", sample.size(),
              space.size());

  std::vector<sim::ProcessorConfig> sampled_configs;
  for (std::size_t idx : sample) sampled_configs.push_back(space[idx]);
  std::vector<double> sampled_cycles;
  for (const sim::SimResult& r : sim::simulate_batch(sampled_configs, trace)) {
    sampled_cycles.push_back(static_cast<double>(r.cycles));
  }
  const data::Dataset train =
      sim::make_config_dataset(sampled_configs, sampled_cycles);

  // 3. Train the paper's best model (NN-E, exhaustive prune).
  auto model = ml::make_model("NN-E").make();
  model->fit(train);
  std::printf("trained %s on %zu simulations\n", model->name().c_str(),
              train.n_rows());

  // 4. Predict 20 configurations we did not simulate, and verify.
  const std::vector<std::size_t> rest =
      data::complement(space.size(), sample);
  std::vector<sim::ProcessorConfig> probe_configs;
  for (std::size_t i = 0; i < 20; ++i) {
    probe_configs.push_back(space[rest[(i * 997) % rest.size()]]);
  }
  std::vector<double> probe_cycles;
  for (const sim::SimResult& r : sim::simulate_batch(probe_configs, trace)) {
    probe_cycles.push_back(static_cast<double>(r.cycles));
  }
  const data::Dataset probe = sim::make_config_dataset(probe_configs);
  const std::vector<double> predicted = model->predict(probe);

  std::printf("\n%-14s %-14s %-8s\n", "predicted", "simulated", "error");
  for (std::size_t i = 0; i < probe_configs.size(); ++i) {
    std::printf("%-14.0f %-14.0f %5.1f%%\n", predicted[i], probe_cycles[i],
                100.0 * std::abs(predicted[i] - probe_cycles[i]) /
                    probe_cycles[i]);
  }
  std::printf("\nmean error on unseen configurations: %.2f%%\n",
              ml::mape(predicted, probe_cycles));
  std::printf("(the paper reports ~3.4%% over the full space at a 1%% "
              "sampling rate)\n");
  return 0;
}
