// Full design-space sweep: simulate all 4608 Table-1 configurations for one
// application and return the cycle counts — the ground truth the sampled-DSE
// experiments model.
//
// The pipeline mirrors the paper's §4.1 methodology: generate the
// application's full instruction stream, run SimPoint (BBV + k-means) to
// pick representative intervals, and simulate only the reduced trace for
// every configuration.
//
// A sweep is minutes of single-core CPU, so results are cached as CSV under
// the cache directory (DSML_CACHE_DIR env var, else ".dsml_cache" in the
// working directory), keyed by every input that affects the output.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "sim/trace.hpp"
#include "workload/simpoint.hpp"

namespace dsml::dse {

struct SweepOptions {
  std::size_t full_trace_instructions = 1'000'000;
  std::size_t interval_instructions = 8192;
  std::size_t max_clusters = 5;
  std::uint64_t trace_seed = 0;   ///< 0 = the app profile's seed
  bool use_cache = true;
  std::string cache_dir;          ///< empty = env/default resolution
};

struct SweepResult {
  std::string app;
  std::vector<double> cycles;     ///< one per design-space configuration
  std::size_t simpoint_count = 0; ///< intervals SimPoint selected
  std::size_t simulated_instructions = 0;  ///< per configuration
  bool from_cache = false;
  double seconds = 0.0;           ///< wall time of the sweep (0 if cached)
};

/// One worker's slice of a sharded sweep: the configuration indices it
/// simulated and their cycle counts, index-aligned. simpoint_count and
/// simulated_instructions are whole-sweep properties (they depend only on
/// the app and options, not the shard), repeated here so merge can verify
/// every shard was computed under identical conditions.
struct SweepShard {
  std::vector<std::size_t> indices;
  std::vector<double> cycles;
  std::size_t simpoint_count = 0;
  std::size_t simulated_instructions = 0;
};

/// The deterministic front half of a sweep: the reduced trace of the app's
/// full instruction stream (workload::reduce_trace), which streams the full
/// trace once for its SimPoints and regenerates only the chosen intervals,
/// so it never holds the full trace. Depends only on (app, options), so
/// every process that builds it — one sweeping locally, or each worker of a
/// sharded fleet — simulates the identical reduced trace.
struct ReducedTrace {
  sim::Trace trace;
  std::size_t simpoint_count = 0;
};

ReducedTrace build_reduced_trace(const std::string& app,
                                 const SweepOptions& options);

/// Resolve the cache directory (explicit option > DSML_CACHE_DIR > default).
std::string resolve_cache_dir(const std::string& explicit_dir);

/// Run (or load) the sweep for one application profile name.
SweepResult run_design_space_sweep(const std::string& app,
                                   const SweepOptions& options = {});

/// Simulate only the given configuration indices (the distributed-DSE
/// worker's unit of work). Trace generation and SimPoint selection are
/// deterministic in (app, options), so a shard's cycles are bit-identical
/// to the same indices of a full local sweep — that is what makes the
/// coordinator's merged table byte-identical to the single-process run.
/// With use_cache, a complete cached sweep is sliced instead of
/// re-simulated; shards never *write* the cache (they are partial).
/// Throws InvalidArgument on an empty, duplicate, or out-of-range index set.
SweepShard run_sweep_shard(const std::string& app, const SweepOptions& options,
                           const std::vector<std::size_t>& indices);

/// run_sweep_shard for a caller that runs many shards of one (app, options):
/// `reduced` is built on the first shard that simulates (a cache slice never
/// needs it) and reused by every later one.
SweepShard run_sweep_shard(const std::string& app, const SweepOptions& options,
                           const std::vector<std::size_t>& indices,
                           std::optional<ReducedTrace>& reduced);

/// Merges shards into one answer aligned to `indices` (strictly ascending;
/// the full sweep is 0..4607). Requires exact coverage — every requested
/// configuration answered exactly once, nothing outside the request — and
/// identical simpoints/instructions across shards, which the answer carries
/// once; throws StateError otherwise, so a lost shard can never produce a
/// silently partial table. Throws InvalidArgument on unordered `indices`.
SweepShard merge_sweep_shards(const std::vector<std::size_t>& indices,
                              const std::vector<SweepShard>& shards);

/// The modelling dataset for a sweep: 24 feature columns (Table 1) plus the
/// cycle-count target.
data::Dataset sweep_dataset(const SweepResult& sweep);

}  // namespace dsml::dse
