// Design-space exploration with a surrogate in the loop — the use case the
// paper's introduction motivates: find the best configurations under a
// designer's constraint without simulating the whole space.
//
//   $ ./examples/explore_design [app]
//
// Workflow:
//   1. simulate 2% of the space, train the Select meta-model on it;
//   2. rank ALL 4608 configurations by predicted cycles;
//   3. apply a "budget" constraint (no L3, narrow machine) and rank again;
//   4. verify the surrogate's top picks against real simulations.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>

#include "common/rng.hpp"
#include "data/split.hpp"
#include "ml/model_zoo.hpp"
#include "ml/validation.hpp"
#include "sim/core.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace {

void report_top(const char* title,
                const std::vector<dsml::sim::ProcessorConfig>& space,
                const std::vector<double>& predicted,
                const std::vector<std::size_t>& order,
                const dsml::sim::Trace& trace, std::size_t top) {
  std::printf("\n%s\n", title);
  std::printf("%-4s %-52s %-12s %-12s\n", "rank", "configuration",
              "predicted", "simulated");
  std::vector<dsml::sim::ProcessorConfig> picks;
  for (std::size_t i = 0; i < top && i < order.size(); ++i) {
    picks.push_back(space[order[i]]);
  }
  const std::vector<dsml::sim::SimResult> actual =
      dsml::sim::simulate_batch(picks, trace);
  for (std::size_t i = 0; i < picks.size(); ++i) {
    std::printf("%-4zu %-52s %-12.0f %-12llu\n", i + 1,
                picks[i].key().c_str(), predicted[order[i]],
                static_cast<unsigned long long>(actual[i].cycles));
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsml;
  const std::string app = argc > 1 ? argv[1] : "gcc";
  const workload::AppProfile profile = workload::spec_profile(app);
  const sim::Trace trace = workload::generate_trace(profile, 60'000);
  const std::vector<sim::ProcessorConfig> space =
      sim::enumerate_design_space();

  // Train the Select meta-model on a 2% sample.
  Rng rng(7);
  const auto sample = data::sample_fraction(space.size(), 0.02, rng);
  std::vector<sim::ProcessorConfig> train_configs;
  for (std::size_t idx : sample) train_configs.push_back(space[idx]);
  std::vector<double> train_cycles;
  for (const sim::SimResult& r : sim::simulate_batch(train_configs, trace)) {
    train_cycles.push_back(static_cast<double>(r.cycles));
  }
  std::printf("simulated %zu configurations for training ('%s')\n",
              sample.size(), app.c_str());

  ml::SelectModel select(ml::sampled_dse_menu());
  select.fit(sim::make_config_dataset(train_configs, train_cycles));
  std::printf("Select committed to %s\n", select.chosen_name().c_str());

  // Predict every configuration in the space.
  const data::Dataset all = sim::make_config_dataset(space);
  const std::vector<double> predicted = select.predict(all);

  // Unconstrained ranking.
  std::vector<std::size_t> order(space.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return predicted[a] < predicted[b];
  });
  report_top("Top predicted configurations (unconstrained):", space,
             predicted, order, trace, 3);

  // Constrained ranking: a cost-limited design — no L3, narrow pipeline.
  std::vector<std::size_t> budget;
  for (std::size_t i = 0; i < space.size(); ++i) {
    if (!space[i].has_l3() && space[i].width == 4) budget.push_back(i);
  }
  std::sort(budget.begin(), budget.end(), [&](std::size_t a, std::size_t b) {
    return predicted[a] < predicted[b];
  });
  report_top("Top predicted configurations (budget: no L3, width 4):", space,
             predicted, budget, trace, 3);

  std::printf("\nTotal simulations spent: %zu of %zu (%.1f%%)\n",
              sample.size() + 6, space.size(),
              100.0 * static_cast<double>(sample.size() + 6) /
                  static_cast<double>(space.size()));
  return 0;
}
