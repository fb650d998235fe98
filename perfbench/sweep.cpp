// sweep-mcf: the full 4608-configuration mcf sweep, uncached, at the CLI's
// default fidelity. The untraced run times dse::run_design_space_sweep end
// to end; the traced run rebuilds the same sweep from public calls
// (replay_configs) so its time splits into trace building and simulation.
#include <algorithm>
#include <numeric>

#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "harness.hpp"
#include "sim/config.hpp"

namespace perfbench {

namespace {

dsml::dse::SweepResult timed_sweep(const dsml::dse::SweepOptions& options,
                                   Result& result, double& seconds) {
  const auto t0 = Clock::now();
  dsml::dse::SweepResult sweep =
      dsml::dse::run_design_space_sweep("mcf", options);
  seconds = seconds_since(t0);
  result.attempted += sweep.cycles.size();
  result.check(!sweep.from_cache, "sweep came from the cache");
  result.check(sweep.cycles.size() == dsml::sim::kDesignSpaceSize,
               "sweep table has " + std::to_string(sweep.cycles.size()) +
                   " rows");
  return sweep;
}

/// A few configurations spread over the space, chosen by the seed.
std::vector<std::size_t> spot_indices(std::uint64_t seed) {
  std::vector<std::size_t> indices;
  for (std::size_t k = 0; k < 8; ++k) {
    indices.push_back((seed * 7919 + k * 577) % dsml::sim::kDesignSpaceSize);
  }
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  return indices;
}

std::vector<std::size_t> all_indices() {
  std::vector<std::size_t> indices(dsml::sim::kDesignSpaceSize);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  return indices;
}

}  // namespace

Result run_sweep(const Args& args) {
  Result result;
  const dsml::dse::SweepOptions options = mcf_options();
  const std::vector<double> truth = load_truth();

  std::vector<double> times;
  dsml::dse::SweepResult first;
  const auto start = Clock::now();
  // Whole sweeps until the window is spent (the last one may overrun it).
  do {
    double s = 0.0;
    dsml::dse::SweepResult sweep = timed_sweep(options, result, s);
    if (times.empty()) {
      first = std::move(sweep);
    } else {
      result.check(sweep.cycles == first.cycles, "repeated sweeps disagree");
    }
    times.push_back(s);
  } while (!args.trace && seconds_since(start) < args.seconds);

  result.check(first.cycles == truth,
               "sweep differs from the committed mcf truth table");
  result.notes.push_back("sweep: " + std::to_string(first.simpoint_count) +
                         " simpoints, " +
                         std::to_string(first.simulated_instructions) +
                         " instr/config, " +
                         std::to_string(dsml::ThreadPool::global().size()) +
                         " pool threads");

  if (!args.trace) {
    // The seed picks which configurations a spot replay from public calls
    // re-simulates.
    const std::vector<std::size_t> spots = spot_indices(args.seed);
    const Replay spot = replay_configs(options, spots);
    for (std::size_t i = 0; i < spots.size(); ++i) {
      result.check(spot.cycles[i] == first.cycles[spots[i]],
                   "replayed config " + std::to_string(spots[i]) +
                       " differs from the sweep");
    }
    const double med = median(times);
    result.set("op_p50_ms", med * 1e3, times.size());
    result.notes.push_back(
        "slowest of " + std::to_string(times.size()) + ": " +
        dsml::strings::format_double(
            *std::max_element(times.begin(), times.end()) * 1e3, 1) +
        " ms");
    result.set("items_per_s",
               static_cast<double>(dsml::sim::kDesignSpaceSize) / med,
               times.size());
    return result;
  }

  // Traced: the same sweep rebuilt from public calls, timed per layer.
  const auto traced_start = Clock::now();
  const Replay replay = replay_configs(options, all_indices());
  const double traced_s = seconds_since(traced_start);
  result.attempted += replay.cycles.size();
  result.check(replay.cycles == first.cycles,
               "traced replay differs from the untraced sweep");
  set_sim_metrics(result, {replay});
  result.set("trace.overhead_ratio", traced_s / times.front());
  result.set("trace.coverage", (replay.trace_s + replay.sim_wall_s) / traced_s);
  result.notes.push_back(
      "traced sweep " + dsml::strings::format_double(traced_s, 3) +
      " s vs untraced " + dsml::strings::format_double(times.front(), 3) +
      " s; trace " + dsml::strings::format_double(replay.trace_s, 3) +
      " s + simulate wall " +
      dsml::strings::format_double(replay.sim_wall_s, 3) +
      " s");
  return result;
}

}  // namespace perfbench
