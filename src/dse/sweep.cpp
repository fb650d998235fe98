#include "dse/sweep.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"
#include "sim/core.hpp"
#include "workload/profiles.hpp"

namespace dsml::dse {

std::string resolve_cache_dir(const std::string& explicit_dir) {
  if (!explicit_dir.empty()) return explicit_dir;
  if (const char* env = std::getenv("DSML_CACHE_DIR"); env && *env) {
    return env;
  }
  return ".dsml_cache";
}

namespace {

std::string cache_path(const std::string& app, const SweepOptions& options) {
  std::ostringstream os;
  os << resolve_cache_dir(options.cache_dir) << "/sweep_" << app << "_n"
     << options.full_trace_instructions << "_iv"
     << options.interval_instructions << "_k" << options.max_clusters << "_s"
     << options.trace_seed << "_cfg" << sim::kDesignSpaceSize << "_v2.csv";
  return os.str();
}

/// Loads the cached table at `path` into `result`. A cache that is not the
/// table store_cache writes is treated exactly like a missing one: the
/// sweep re-simulates and rewrites it rather than failing over a
/// discardable artifact, or loading a torn or hand-edited file. The table
/// must list configurations 0 .. kDesignSpaceSize-1 in order, each with a
/// positive integer cycle count, and one simpoint count and one
/// instruction count, the same on every row.
bool load_cached(const std::string& path, SweepResult& result) {
  if (!std::filesystem::exists(path)) return false;
  try {
    DSML_FAIL("dse.sweep.cache_load");
    const csv::Table table = csv::read_file(path);
    const std::size_t cfg = table.column_index("config");
    const std::size_t cyc = table.column_index("cycles");
    const std::size_t pts = table.column_index("simpoints");
    const std::size_t ins = table.column_index("instructions");
    if (table.rows.size() != sim::kDesignSpaceSize) {
      throw IoError("sweep cache: " + std::to_string(table.rows.size()) +
                    " rows");
    }
    const std::uint64_t simpoints = strings::parse_u64(table.rows[0][pts]);
    const std::uint64_t instructions = strings::parse_u64(table.rows[0][ins]);
    std::vector<double> cycles;
    cycles.reserve(table.rows.size());
    for (std::size_t i = 0; i < table.rows.size(); ++i) {
      const std::vector<std::string>& row = table.rows[i];
      const std::uint64_t c = strings::parse_u64(row[cyc]);
      if (strings::parse_u64(row[cfg]) != i || c == 0 ||
          strings::parse_u64(row[pts]) != simpoints ||
          strings::parse_u64(row[ins]) != instructions) {
        throw IoError("sweep cache: row " + std::to_string(i) +
                      " is not a configuration's result");
      }
      cycles.push_back(static_cast<double>(c));
    }
    result.cycles = std::move(cycles);
    result.simpoint_count = static_cast<std::size_t>(simpoints);
    result.simulated_instructions = static_cast<std::size_t>(instructions);
    result.from_cache = true;
    return true;
  } catch (const std::exception&) {
    static metrics::Counter& bad_cache =
        metrics::counter("dse.cache_load_failures");
    bad_cache.add();
    result.cycles.clear();
    result.simpoint_count = 0;
    result.simulated_instructions = 0;
    result.from_cache = false;
    return false;
  }
}

void store_cache(const std::string& path, const SweepResult& result) {
  csv::Table table;
  table.header = {"config", "cycles", "simpoints", "instructions"};
  table.rows.reserve(result.cycles.size());
  for (std::size_t i = 0; i < result.cycles.size(); ++i) {
    table.rows.push_back({std::to_string(i),
                          strings::format_double(result.cycles[i], 0),
                          std::to_string(result.simpoint_count),
                          std::to_string(result.simulated_instructions)});
  }
  csv::write_file(path, table);
}

/// Cycle counts of `configs` on the reduced trace: the one batch call both
/// the full sweep and its shards make.
std::vector<double> simulate_cycles(
    const std::vector<sim::ProcessorConfig>& configs, const sim::Trace& trace) {
  static metrics::Counter& simulated = metrics::counter("dse.configs_simulated");
  const std::vector<sim::SimResult> results =
      sim::simulate_batch(configs, trace);
  simulated.add(configs.size());
  std::vector<double> cycles;
  cycles.reserve(results.size());
  for (const sim::SimResult& r : results) {
    cycles.push_back(static_cast<double>(r.cycles));
  }
  return cycles;
}

}  // namespace

ReducedTrace build_reduced_trace(const std::string& app,
                                 const SweepOptions& options) {
  workload::Reduction reduction = workload::reduce_trace(
      workload::spec_profile(app), options.full_trace_instructions,
      options.trace_seed, options.interval_instructions,
      options.max_clusters);
  ReducedTrace out;
  out.trace = std::move(reduction.trace);
  out.simpoint_count = reduction.points.points.size();
  return out;
}

SweepResult run_design_space_sweep(const std::string& app,
                                   const SweepOptions& options) {
  DSML_REQUIRE(options.full_trace_instructions >=
                   options.interval_instructions * 2,
               "run_design_space_sweep: trace shorter than two intervals");
  trace::Span sweep_span(
      [&] { return "run_design_space_sweep " + app; }, "dse");
  SweepResult result;
  result.app = app;

  const std::string path = cache_path(app, options);
  if (options.use_cache && load_cached(path, result)) {
    return result;
  }

  trace::Stopwatch sweep_timer;

  const ReducedTrace reduced = build_reduced_trace(app, options);
  result.cycles =
      simulate_cycles(sim::enumerate_design_space(), reduced.trace);
  result.simpoint_count = reduced.simpoint_count;
  result.simulated_instructions = reduced.trace.size();
  result.seconds = sweep_timer.seconds();
  if (options.use_cache) {
    // The cache is an optimisation; failing to persist it (read-only dir,
    // full disk) must not fail a sweep that already computed its results.
    try {
      store_cache(path, result);
    } catch (const std::exception&) {
      static metrics::Counter& bad_store =
          metrics::counter("dse.cache_store_failures");
      bad_store.add();
    }
  }
  return result;
}

SweepShard run_sweep_shard(const std::string& app, const SweepOptions& options,
                           const std::vector<std::size_t>& indices) {
  std::optional<ReducedTrace> reduced;
  return run_sweep_shard(app, options, indices, reduced);
}

SweepShard run_sweep_shard(const std::string& app, const SweepOptions& options,
                           const std::vector<std::size_t>& indices,
                           std::optional<ReducedTrace>& reduced) {
  DSML_REQUIRE(!indices.empty(), "run_sweep_shard: empty index set");
  DSML_REQUIRE(options.full_trace_instructions >=
                   options.interval_instructions * 2,
               "run_sweep_shard: trace shorter than two intervals");
  {
    std::vector<std::uint8_t> seen(sim::kDesignSpaceSize, 0);
    for (const std::size_t idx : indices) {
      if (idx >= sim::kDesignSpaceSize) {
        throw InvalidArgument("run_sweep_shard: index " + std::to_string(idx) +
                              " outside design space of " +
                              std::to_string(sim::kDesignSpaceSize));
      }
      if (seen[idx]++) {
        throw InvalidArgument("run_sweep_shard: duplicate index " +
                              std::to_string(idx));
      }
    }
  }
  trace::Span shard_span([&] { return "run_sweep_shard " + app; }, "dse");

  SweepShard shard;
  shard.indices = indices;

  if (options.use_cache) {
    // A complete cached sweep already holds this shard's answers; slice it.
    // Shards never *write* the cache — a partial table stored under the
    // full-sweep key would poison every later load.
    SweepResult cached;
    cached.app = app;
    if (load_cached(cache_path(app, options), cached)) {
      shard.cycles.reserve(indices.size());
      for (const std::size_t idx : indices) {
        shard.cycles.push_back(cached.cycles[idx]);
      }
      shard.simpoint_count = cached.simpoint_count;
      shard.simulated_instructions = cached.simulated_instructions;
      return shard;
    }
  }

  if (!reduced) reduced = build_reduced_trace(app, options);
  const std::vector<sim::ProcessorConfig> space =
      sim::enumerate_design_space();
  std::vector<sim::ProcessorConfig> configs;
  configs.reserve(indices.size());
  for (const std::size_t idx : indices) configs.push_back(space[idx]);
  shard.cycles = simulate_cycles(configs, reduced->trace);
  shard.simpoint_count = reduced->simpoint_count;
  shard.simulated_instructions = reduced->trace.size();
  return shard;
}

SweepShard merge_sweep_shards(const std::vector<std::size_t>& indices,
                              const std::vector<SweepShard>& shards) {
  DSML_REQUIRE(std::adjacent_find(indices.begin(), indices.end(),
                                  std::greater_equal<>()) == indices.end(),
               "merge_sweep_shards: indices must be strictly ascending");
  if (shards.empty()) {
    throw StateError("merge_sweep_shards: no shards to merge");
  }
  SweepShard merged;
  merged.indices = indices;
  merged.cycles.assign(indices.size(), 0.0);
  merged.simpoint_count = shards.front().simpoint_count;
  merged.simulated_instructions = shards.front().simulated_instructions;

  std::vector<std::uint8_t> count(indices.size(), 0);
  for (const SweepShard& shard : shards) {
    if (shard.indices.size() != shard.cycles.size()) {
      throw StateError("merge_sweep_shards: shard has " +
                       std::to_string(shard.indices.size()) +
                       " indices but " + std::to_string(shard.cycles.size()) +
                       " cycle counts");
    }
    if (shard.simpoint_count != merged.simpoint_count ||
        shard.simulated_instructions != merged.simulated_instructions) {
      throw StateError(
          "merge_sweep_shards: shards disagree on sweep conditions "
          "(simpoints " +
          std::to_string(shard.simpoint_count) + " vs " +
          std::to_string(merged.simpoint_count) + ", instructions " +
          std::to_string(shard.simulated_instructions) + " vs " +
          std::to_string(merged.simulated_instructions) + ")");
    }
    for (std::size_t i = 0; i < shard.indices.size(); ++i) {
      const std::size_t idx = shard.indices[i];
      const auto it = std::lower_bound(indices.begin(), indices.end(), idx);
      if (it == indices.end() || *it != idx) {
        throw StateError("merge_sweep_shards: index " + std::to_string(idx) +
                         " outside the " + std::to_string(indices.size()) +
                         " requested");
      }
      const auto pos = static_cast<std::size_t>(it - indices.begin());
      if (count[pos]++ == 0) {
        merged.cycles[pos] = shard.cycles[i];
      }
    }
  }

  std::size_t missing = 0;
  std::size_t duplicated = 0;
  for (const std::uint8_t c : count) {
    if (c == 0) ++missing;
    if (c > 1) ++duplicated;
  }
  if (missing != 0 || duplicated != 0) {
    // Exact coverage is the whole point: a lost shard must surface as an
    // error here, never as a silently partial table.
    throw StateError("merge_sweep_shards: incomplete coverage (" +
                     std::to_string(missing) + " configurations missing, " +
                     std::to_string(duplicated) + " duplicated of " +
                     std::to_string(indices.size()) + ")");
  }
  return merged;
}

data::Dataset sweep_dataset(const SweepResult& sweep) {
  DSML_REQUIRE(sweep.cycles.size() == sim::kDesignSpaceSize,
               "sweep_dataset: unexpected cycle vector size");
  return sim::make_config_dataset(sim::enumerate_design_space(),
                                  sweep.cycles);
}

}  // namespace dsml::dse
