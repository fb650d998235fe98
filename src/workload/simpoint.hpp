// SimPoint substrate (Sherwood et al., ASPLOS 2002 — the paper's ref [13]).
//
// The paper simulates only SimPoint-selected 100M-instruction intervals
// instead of whole SPEC runs. We reproduce the pipeline on our synthetic
// traces: slice the trace into fixed-length intervals, build per-interval
// basic-block vectors (BBVs), reduce dimensionality by random projection,
// cluster with k-means (k chosen by the Bayesian Information Criterion as in
// X-means/SimPoint), and pick, per cluster, the interval closest to the
// centroid, weighted by cluster population.
//
// collect_bbv, choose_simpoints and extract_intervals work on a trace held
// in memory. reduce_trace gives the same reduced trace without ever holding
// the full one: one pass generates it and collects its BBVs, keeping a
// TraceBuilder copy at each interval start, and the chosen intervals are
// then regenerated from their copies. Its memory grows with the SimPoints
// times the interval length, not with the trace.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/trace.hpp"
#include "workload/profiles.hpp"

namespace dsml::workload {

/// Per-interval basic-block frequency vectors after L1 normalisation and
/// random projection.
struct BasicBlockVectors {
  std::size_t interval_length = 0;
  std::vector<std::vector<double>> vectors;  ///< one per full interval

  std::size_t n_intervals() const noexcept { return vectors.size(); }
};

/// Collect BBVs. A basic block is identified by the pc of the instruction
/// following a branch (its entry point); execution counts are weighted by
/// block length, L1-normalised per interval, and randomly projected to
/// `projected_dims` dimensions (SimPoint uses 15).
BasicBlockVectors collect_bbv(const sim::Trace& trace,
                              std::size_t interval_length,
                              std::size_t projected_dims = 15,
                              std::uint64_t seed = 42);

struct KMeansResult {
  std::vector<std::size_t> assignment;           ///< point -> cluster
  std::vector<std::vector<double>> centroids;
  double inertia = 0.0;                          ///< sum of squared distances
  std::size_t k = 0;
};

/// Lloyd's algorithm with k-means++ seeding.
KMeansResult k_means(const std::vector<std::vector<double>>& points,
                     std::size_t k, Rng& rng, std::size_t max_iter = 100);

/// Bayesian Information Criterion of a clustering under the identical
/// spherical Gaussian model (Pelleg & Moore); higher is better.
double k_means_bic(const std::vector<std::vector<double>>& points,
                   const KMeansResult& clustering);

struct SimPoint {
  std::size_t interval_index = 0;
  double weight = 0.0;  ///< cluster population share
};

struct SimPoints {
  std::size_t interval_length = 0;
  std::size_t n_intervals = 0;
  std::vector<SimPoint> points;
};

/// Full SimPoint pipeline: BBV → k-means for k = 1..max_clusters → best BIC
/// → per-cluster representative.
SimPoints choose_simpoints(const sim::Trace& trace,
                           std::size_t interval_length,
                           std::size_t max_clusters = 6,
                           std::uint64_t seed = 42);

/// Concatenate the representative intervals into one reduced trace (ordered
/// by interval index). The design-space sweep simulates this trace, built by
/// reduce_trace.
sim::Trace extract_intervals(const sim::Trace& trace, const SimPoints& points);

/// A reduced trace and the SimPoints it concatenates.
struct Reduction {
  sim::Trace trace;  ///< the chosen intervals, ordered by interval index
  SimPoints points;
};

/// For t = generate_trace(profile, n, seed), the points
/// choose_simpoints(t, interval_length, max_clusters) and the trace
/// extract_intervals(t, points), byte for byte, without holding t. The
/// chosen intervals are regenerated in parallel on the global pool. Adds n
/// to workload.trace_instructions, as generate_trace does.
Reduction reduce_trace(const AppProfile& profile, std::size_t n,
                       std::uint64_t seed, std::size_t interval_length,
                       std::size_t max_clusters);

}  // namespace dsml::workload
