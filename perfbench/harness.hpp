// The perfbench harness: drives the dsml libraries from outside, through
// their public functions and seams, and times everything in these files.
// run.py builds this binary and the `dsml` CLI, runs one workload per
// process, and turns the result line printed here into the benchmark's
// report (see README.md for the workloads and metrics).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dse/sweep.hpp"

namespace perfbench {

/// Seed 0 is the reference input: the CLI's own defaults (sampler/CV seed 7,
/// serve row offset 0). Only campaigns with this seed are compared against
/// the committed campaign pin; the mcf truth table holds for every seed,
/// because the mcf trace is the same for all of them (a different trace seed
/// changes the SimPoint count, and with it the sweep's work, by up to 2x).
inline constexpr std::uint64_t kDefaultSeed = 0;

/// Inputs, relative to the repository root (the working directory).
inline constexpr const char* kDataDir = "perfbench/data";
inline constexpr const char* kModelPath = "tests/data/serve/model.dsml";

struct Args {
  std::string mode;       ///< run | setup | oracle | machine
  std::string workload;   ///< sweep-mcf | campaign-mcf | serve-small
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::uint16_t port = 0;  ///< serve-small: the server's port
};

/// What a workload run reports: the oracle verdict, the operation counts
/// behind failed_frac, and metric values keyed by their BENCHMARK.json
/// names (units live there).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::uint64_t>> samples;
  std::vector<std::string> notes;  ///< report lines, failed oracles first

  /// Records an oracle; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value, std::uint64_t n = 0);
  /// The single JSON line run.py parses.
  std::string json() const;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile of an ascending sample (q in [0, 1]).
double percentile(const std::vector<double>& sorted, double q);
/// Median of an unsorted sample (mean of the middle two for even sizes).
double median(std::vector<double> values);

/// The sweep both mcf workloads run: the CLI's default fidelity (600k
/// instructions, 30k-instruction intervals, at most 4 SimPoints) on the mcf
/// profile's own trace, never reading or writing the sweep cache.
dsml::dse::SweepOptions mcf_options();

/// The committed mcf truth table: 4608 cycle counts.
std::vector<double> load_truth();
void write_truth(const std::vector<double>& cycles);

/// Cycles of `indices` re-simulated from public calls — generate_trace,
/// choose_simpoints, extract_intervals, then sim::simulate per config — with
/// per-layer timing. The traced runs and the self-consistency checks use it.
struct Replay {
  std::vector<double> cycles;        ///< index-aligned with the request
  std::vector<double> config_ms;     ///< per simulate() call
  double trace_s = 0.0;              ///< generate + SimPoint + extract
  double sim_wall_s = 0.0;           ///< wall time of the parallel_for
  std::size_t instructions = 0;      ///< reduced-trace length per config
};
Replay replay_configs(const dsml::dse::SweepOptions& options,
                      const std::vector<std::size_t>& indices);

/// Adds the simulator-layer metrics of one or more replays.
void set_sim_metrics(Result& result, const std::vector<Replay>& replays);

Result run_sweep(const Args& args);
Result run_campaign(const Args& args);
Result run_serve(const Args& args);
/// serve-small's client-side set-up: build the request lines, connect,
/// and send the warm-up requests.
void setup_serve(const Args& args);
/// Regenerates the committed oracles in kDataDir.
void write_oracles();

}  // namespace perfbench
