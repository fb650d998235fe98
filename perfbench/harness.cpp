#include "harness.hpp"

#include <algorithm>
#include <fstream>
#include <numeric>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "sim/core.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/simpoint.hpp"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  notes.insert(notes.begin(), "ORACLE FAILED: " + what);
}

void Result::set(const std::string& name, double value, std::uint64_t n) {
  metrics.emplace_back(name, value);
  if (n != 0) samples.emplace_back(name, n);
}

std::string Result::json() const {
  dsml::json::Writer w(/*compact=*/true);
  w.begin_object()
      .field("correct", correct)
      .field("attempted", attempted)
      .field("failed", failed);
  w.key("metrics").begin_object();
  for (const auto& [name, value] : metrics) w.field(name, value);
  w.end_object();
  w.key("samples").begin_object();
  for (const auto& [name, n] : samples) w.field(name, n);
  w.end_object();
  w.key("notes").begin_array();
  for (const std::string& note : notes) w.value(std::string_view(note));
  w.end_array();
  w.end_object();
  return w.str();
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
  return sorted[idx];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

dsml::dse::SweepOptions mcf_options() {
  dsml::dse::SweepOptions options;
  options.full_trace_instructions = 600'000;
  options.interval_instructions = 30'000;
  options.max_clusters = 4;
  options.use_cache = false;
  return options;
}

namespace {

const std::string kTruthPath = std::string(kDataDir) + "/mcf_cycles.txt";

}  // namespace

std::vector<double> load_truth() {
  std::ifstream in(kTruthPath);
  if (!in) throw dsml::IoError("cannot read " + kTruthPath);
  std::vector<double> cycles;
  cycles.reserve(dsml::sim::kDesignSpaceSize);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    cycles.push_back(static_cast<double>(std::stoull(line)));
  }
  if (cycles.size() != dsml::sim::kDesignSpaceSize) {
    throw dsml::IoError(kTruthPath + ": expected " +
                        std::to_string(dsml::sim::kDesignSpaceSize) +
                        " cycle counts, found " +
                        std::to_string(cycles.size()));
  }
  return cycles;
}

void write_truth(const std::vector<double>& cycles) {
  std::ofstream out(kTruthPath);
  out << "# mcf cycles per design-space configuration (enumerate_design_space "
         "order): 600k-instruction trace, 30k intervals, <= 4 SimPoints, "
         "profile trace seed\n";
  for (const double c : cycles) out << static_cast<std::uint64_t>(c) << "\n";
  if (!out) throw dsml::IoError("cannot write " + kTruthPath);
}

Replay replay_configs(const dsml::dse::SweepOptions& options,
                      const std::vector<std::size_t>& indices) {
  Replay replay;
  const auto t0 = Clock::now();
  const dsml::sim::Trace full = dsml::workload::generate_trace(
      dsml::workload::spec_profile("mcf"), options.full_trace_instructions,
      options.trace_seed);
  const dsml::workload::SimPoints points = dsml::workload::choose_simpoints(
      full, options.interval_instructions, options.max_clusters);
  const dsml::sim::Trace reduced =
      dsml::workload::extract_intervals(full, points);
  replay.trace_s = seconds_since(t0);
  replay.instructions = reduced.size();

  const std::vector<dsml::sim::ProcessorConfig> space =
      dsml::sim::enumerate_design_space();
  replay.cycles.assign(indices.size(), 0.0);
  replay.config_ms.assign(indices.size(), 0.0);
  const auto sim_start = Clock::now();
  dsml::parallel_for(0, indices.size(), [&](std::size_t i) {
    const auto call = Clock::now();
    const dsml::sim::SimResult r =
        dsml::sim::simulate(space[indices[i]], reduced);
    replay.config_ms[i] = seconds_since(call) * 1e3;
    replay.cycles[i] = static_cast<double>(r.cycles);
  });
  replay.sim_wall_s = seconds_since(sim_start);
  return replay;
}

void set_sim_metrics(Result& result, const std::vector<Replay>& replays) {
  std::vector<double> config_ms;
  double trace_s = 0.0;
  double wall_s = 0.0;
  double instructions = 0.0;
  for (const Replay& r : replays) {
    config_ms.insert(config_ms.end(), r.config_ms.begin(), r.config_ms.end());
    trace_s += r.trace_s;
    wall_s += r.sim_wall_s;
    instructions += static_cast<double>(r.instructions) *
                    static_cast<double>(r.config_ms.size());
  }
  std::sort(config_ms.begin(), config_ms.end());
  const double busy_s =
      std::accumulate(config_ms.begin(), config_ms.end(), 0.0) / 1e3;
  const double threads =
      static_cast<double>(dsml::ThreadPool::global().size());
  const auto n = static_cast<std::uint64_t>(config_ms.size());
  result.set("workload.trace_s", trace_s, replays.size());
  result.set("sim.busy_s", busy_s, n);
  result.set("sim.instr_per_s", busy_s > 0 ? instructions / busy_s : 0.0);
  result.set("sim.config_ms_p50", percentile(config_ms, 0.5), n);
  result.set("sim.config_ms_max", config_ms.empty() ? 0.0 : config_ms.back(),
             n);
  result.set("sim.pool_busy_frac",
             wall_s > 0 ? busy_s / (wall_s * threads) : 0.0);
  result.set("sim.configs", static_cast<double>(n));
  result.set("sim.instructions", instructions);
}

}  // namespace perfbench
