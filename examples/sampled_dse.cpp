// Sampled design-space exploration, end to end (the paper's §4.2 workflow
// for one application).
//
//   $ ./examples/sampled_dse [app] [rate]
//
// app  : applu | equake | gcc | mesa | mcf   (default mcf)
// rate : training sample fraction in (0,1]   (default 0.02)
//
// Pipeline: full synthetic run → SimPoint interval selection → simulate all
// 4608 configurations on the reduced trace → train LR-B / NN-S / NN-E on the
// sample → report estimated (cross-validation) and true errors, plus the
// Select meta-model's choice.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "dse/sampled.hpp"
#include "dse/sweep.hpp"
#include "sim/config.hpp"

int main(int argc, char** argv) {
  using namespace dsml;
  const std::string app = argc > 1 ? argv[1] : "mcf";
  const double rate = argc > 2 ? std::atof(argv[2]) : 0.02;

  dse::SweepOptions sweep_options;
  sweep_options.full_trace_instructions = 600'000;
  sweep_options.interval_instructions = 30'000;
  sweep_options.max_clusters = 4;
  std::printf("sweeping the %zu-point design space for '%s' "
              "(cached after the first run)...\n",
              sim::kDesignSpaceSize, app.c_str());
  const dse::SweepResult sweep = dse::run_design_space_sweep(app, sweep_options);
  std::printf("  %zu SimPoint intervals, %zu instructions per config%s\n",
              sweep.simpoint_count, sweep.simulated_instructions,
              sweep.from_cache ? " [cache hit]" : "");

  const data::Dataset full = dse::sweep_dataset(sweep);

  dse::SampledDseOptions options;
  options.sampling_rates = {rate};
  const dse::SampledDseResult result =
      dse::run_sampled_dse(full, app, options);

  std::printf("\n%-6s  %-12s  %-12s  %-10s\n", "model", "est. error",
              "true error", "fit time");
  for (const auto& run : result.runs) {
    std::printf("%-6s  %9.2f %%  %9.2f %%  %7.2f s\n", run.model.c_str(),
                run.estimated_error_max, run.true_error, run.fit_seconds);
  }
  const auto& select = result.select.front();
  std::printf("\nSelect picked %s (estimated %.2f%%), true error %.2f%% over "
              "all %zu configurations\n",
              select.chosen_model.c_str(), select.estimated_error,
              select.true_error, full.n_rows());
  return 0;
}
