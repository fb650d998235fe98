// SimPoint substrate (Sherwood et al., ASPLOS 2002 — the paper's ref [13]).
//
// The paper simulates only SimPoint-selected 100M-instruction intervals
// instead of whole SPEC runs. We reproduce the pipeline on our synthetic
// traces: slice the trace into fixed-length intervals, build per-interval
// basic-block vectors (BBVs), reduce dimensionality by random projection,
// cluster with k-means (k chosen by the Bayesian Information Criterion as in
// X-means/SimPoint), and pick, per cluster, the interval closest to the
// centroid, weighted by cluster population.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/trace.hpp"

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
/// by interval index). This is what the design-space sweep simulates.
sim::Trace extract_intervals(const sim::Trace& trace, const SimPoints& points);

}  // namespace dsml::workload
