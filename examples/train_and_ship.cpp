// Train a surrogate once, save it to disk, reload it in a "deployment"
// context and keep predicting — the workflow a design team would use to
// share a trained model without sharing the simulator time behind it.
//
//   $ ./examples/train_and_ship
#include <cstdio>
#include <filesystem>

#include "common/rng.hpp"
#include "data/split.hpp"
#include "ml/metrics.hpp"
#include "ml/model_zoo.hpp"
#include "ml/serialize.hpp"
#include "sim/core.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

int main() {
  using namespace dsml;
  const sim::Trace trace =
      workload::generate_trace(workload::spec_profile("equake"), 50'000);
  const std::vector<sim::ProcessorConfig> space =
      sim::enumerate_design_space();

  // --- training side: simulate a sample, fit, save -------------------------
  Rng rng(11);
  const auto sample = data::sample_fraction(space.size(), 0.02, rng);
  std::vector<sim::ProcessorConfig> configs;
  for (std::size_t idx : sample) configs.push_back(space[idx]);
  std::vector<double> cycles;
  for (const sim::SimResult& r : sim::simulate_batch(configs, trace)) {
    cycles.push_back(static_cast<double>(r.cycles));
  }
  auto model = ml::make_model("NN-E").make();
  model->fit(sim::make_config_dataset(configs, cycles));

  const std::string path = "equake_surrogate.dsml";
  ml::save_model(*model, path);
  std::printf("trained %s on %zu simulations, saved to %s (%ju bytes)\n",
              model->name().c_str(), sample.size(), path.c_str(),
              static_cast<std::uintmax_t>(std::filesystem::file_size(path)));

  // --- deployment side: reload and predict --------------------------------
  const auto shipped = ml::load_model(path);
  std::printf("reloaded model: %s\n", shipped->name().c_str());

  // Sanity: the shipped model predicts identically to the original.
  const data::Dataset all = sim::make_config_dataset(space);
  const auto a = model->predict(all);
  const auto b = shipped->predict(all);
  double max_delta = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_delta = std::max(max_delta, std::abs(a[i] - b[i]));
  }
  std::printf("max prediction delta original vs reloaded: %g (exact "
              "round-trip)\n",
              max_delta);

  // And it still explains the design space.
  std::vector<sim::ProcessorConfig> fresh;
  std::vector<double> predicted;
  for (std::size_t i = 0; i < 40; ++i) {
    const std::size_t idx = (i * 113) % space.size();
    fresh.push_back(space[idx]);
    predicted.push_back(b[idx]);
  }
  std::vector<double> truth;
  for (const sim::SimResult& r : sim::simulate_batch(fresh, trace)) {
    truth.push_back(static_cast<double>(r.cycles));
  }
  std::printf("shipped-model error on 40 fresh configurations: %.2f%%\n",
              ml::mape(predicted, truth));
  std::filesystem::remove(path);
  return 0;
}
