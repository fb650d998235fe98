#include "workload/simpoint.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "workload/generator.hpp"

namespace dsml::workload {

namespace {

/// The ±1 entry of the random projection matrix at (block, dim), drawn from
/// a hash of the block's entry pc so the (blocks x dims) matrix is never
/// materialised.
double projection_sign(std::uint64_t block_pc, std::size_t dim,
                       std::uint64_t seed) {
  std::uint64_t h = block_pc * 0x9e3779b97f4a7c15ULL + seed * 0xbf58476d1ce4e5b9ULL +
                    dim * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 29;
  // Map to {-1, +1} (sparse Achlioptas-style projections also work; the
  // dense sign projection is simplest and distance-preserving enough).
  return (h & 1) != 0 ? 1.0 : -1.0;
}

/// collect_bbv, fed one instruction at a time: every full interval's vector
/// is complete when its last instruction is added, so a pass over a trace
/// that is never stored collects the same vectors.
class BbvBuilder {
 public:
  BbvBuilder(std::size_t interval_length, std::size_t projected_dims,
             std::uint64_t seed, std::size_t n_intervals)
      : dims_(projected_dims), seed_(seed) {
    out_.interval_length = interval_length;
    out_.vectors.reserve(n_intervals);
  }

  void add(const sim::Instr& ins) {
    // Instruction 0 of each interval and every instruction following a
    // branch starts a block; blocks are keyed by entry pc.
    if (block_len_ == 0) block_pc_ = ins.pc;
    ++block_len_;
    const bool interval_end = ++filled_ == out_.interval_length;
    if (ins.op == sim::OpClass::kBranch || interval_end) {
      // SimPoint weights block executions by block length so the vector
      // reflects instructions spent, not just visit counts.
      counts_[block_pc_] += static_cast<double>(block_len_);
      block_len_ = 0;
    }
    if (interval_end) close_interval();
  }

  BasicBlockVectors take() { return std::move(out_); }

 private:
  void close_interval() {
    // A fresh map per interval: the sums below run in the map's iteration
    // order, which depends on its bucket history.
    const std::unordered_map<std::uint64_t, double> counts =
        std::exchange(counts_, {});
    filled_ = 0;
    // L1 normalise, then project.
    double total = 0.0;
    for (const auto& [pc, c] : counts) total += c;
    std::vector<double> projected(dims_, 0.0);
    if (total > 0.0) {
      for (const auto& [pc, c] : counts) {
        const double w = c / total;
        for (std::size_t d = 0; d < dims_; ++d) {
          projected[d] += w * projection_sign(pc, d, seed_);
        }
      }
    }
    out_.vectors.push_back(std::move(projected));
  }

  std::size_t dims_;
  std::uint64_t seed_;
  BasicBlockVectors out_;
  std::unordered_map<std::uint64_t, double> counts_;  // the open interval's
  std::uint64_t block_pc_ = 0;
  std::size_t block_len_ = 0;
  std::size_t filled_ = 0;  // instructions of the open interval added
};

}  // namespace

BasicBlockVectors collect_bbv(const sim::Trace& trace,
                              std::size_t interval_length,
                              std::size_t projected_dims,
                              std::uint64_t seed) {
  DSML_REQUIRE(interval_length > 0, "collect_bbv: interval_length must be > 0");
  DSML_REQUIRE(projected_dims > 0, "collect_bbv: projected_dims must be > 0");
  DSML_REQUIRE(trace.size() >= interval_length,
               "collect_bbv: trace shorter than one interval");
  const std::size_t n_intervals = trace.size() / interval_length;
  BbvBuilder bbv(interval_length, projected_dims, seed, n_intervals);
  for (std::size_t i = 0; i < n_intervals * interval_length; ++i) {
    bbv.add(trace.instrs[i]);
  }
  return bbv.take();
}

namespace {

double sq_distance(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

}  // namespace

KMeansResult k_means(const std::vector<std::vector<double>>& points,
                     std::size_t k, Rng& rng, std::size_t max_iter) {
  DSML_REQUIRE(!points.empty(), "k_means: no points");
  DSML_REQUIRE(k >= 1 && k <= points.size(),
               "k_means: k outside [1, n_points]");
  const std::size_t dims = points.front().size();
  for (const auto& p : points) {
    DSML_REQUIRE(p.size() == dims, "k_means: ragged points");
  }

  KMeansResult result;
  result.k = k;
  // k-means++ seeding.
  result.centroids.push_back(points[rng.below(points.size())]);
  std::vector<double> dist2(points.size(),
                            std::numeric_limits<double>::infinity());
  while (result.centroids.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      dist2[i] = std::min(dist2[i],
                          sq_distance(points[i], result.centroids.back()));
      total += dist2[i];
    }
    if (total <= 0.0) {
      // All remaining points coincide with centroids; duplicate one.
      result.centroids.push_back(points[rng.below(points.size())]);
      continue;
    }
    double x = rng.uniform() * total;
    std::size_t chosen = points.size() - 1;
    for (std::size_t i = 0; i < points.size(); ++i) {
      x -= dist2[i];
      if (x <= 0.0) {
        chosen = i;
        break;
      }
    }
    result.centroids.push_back(points[chosen]);
  }

  result.assignment.assign(points.size(), 0);
  for (std::size_t iter = 0; iter < max_iter; ++iter) {
    bool changed = false;
    // Assignment step.
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::size_t best = 0;
      double best_d = sq_distance(points[i], result.centroids[0]);
      for (std::size_t c = 1; c < k; ++c) {
        const double d = sq_distance(points[i], result.centroids[c]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      if (result.assignment[i] != best) {
        result.assignment[i] = best;
        changed = true;
      }
    }
    // Update step.
    std::vector<std::vector<double>> sums(k, std::vector<double>(dims, 0.0));
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::size_t c = result.assignment[i];
      ++counts[c];
      for (std::size_t d = 0; d < dims; ++d) sums[c][d] += points[i][d];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at the farthest point.
        std::size_t far = 0;
        double far_d = -1.0;
        for (std::size_t i = 0; i < points.size(); ++i) {
          const double d =
              sq_distance(points[i], result.centroids[result.assignment[i]]);
          if (d > far_d) {
            far_d = d;
            far = i;
          }
        }
        result.centroids[c] = points[far];
        changed = true;
        continue;
      }
      for (std::size_t d = 0; d < dims; ++d) {
        result.centroids[c][d] =
            sums[c][d] / static_cast<double>(counts[c]);
      }
    }
    if (!changed && iter > 0) break;
  }

  result.inertia = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    result.inertia +=
        sq_distance(points[i], result.centroids[result.assignment[i]]);
  }
  return result;
}

double k_means_bic(const std::vector<std::vector<double>>& points,
                   const KMeansResult& clustering) {
  DSML_REQUIRE(points.size() == clustering.assignment.size(),
               "k_means_bic: size mismatch");
  const auto n = static_cast<double>(points.size());
  const auto d = static_cast<double>(points.front().size());
  const auto k = static_cast<double>(clustering.k);
  if (points.size() <= clustering.k) {
    return -std::numeric_limits<double>::infinity();
  }
  // Pelleg–Moore: identical spherical variance MLE across clusters.
  const double variance =
      std::max(clustering.inertia / ((n - k) * d), 1e-12);
  std::vector<std::size_t> counts(clustering.k, 0);
  for (std::size_t a : clustering.assignment) ++counts[a];
  double log_likelihood =
      -n * d / 2.0 * std::log(2.0 * M_PI * variance) - (n - k) * d / 2.0;
  for (std::size_t c = 0; c < clustering.k; ++c) {
    const auto nc = static_cast<double>(counts[c]);
    if (nc > 0.0) log_likelihood += nc * std::log(nc / n);
  }
  const double free_params = k * (d + 1.0);
  return log_likelihood - free_params / 2.0 * std::log(n);
}

namespace {

/// choose_simpoints after its BBVs: k-means for k = 1..max_clusters, best
/// BIC, per-cluster representative.
SimPoints pick_simpoints(const BasicBlockVectors& bbv,
                         std::size_t max_clusters, std::uint64_t seed) {
  DSML_REQUIRE(bbv.n_intervals() >= 1, "choose_simpoints: no intervals");
  Rng rng(seed);
  const std::size_t k_cap = std::min(max_clusters, bbv.n_intervals());
  KMeansResult best;
  double best_bic = -std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k <= k_cap; ++k) {
    KMeansResult r = k_means(bbv.vectors, k, rng);
    const double bic = k_means_bic(bbv.vectors, r);
    if (bic > best_bic) {
      best_bic = bic;
      best = std::move(r);
    }
  }

  SimPoints sp;
  sp.interval_length = bbv.interval_length;
  sp.n_intervals = bbv.n_intervals();
  std::vector<std::size_t> counts(best.k, 0);
  for (std::size_t a : best.assignment) ++counts[a];
  for (std::size_t c = 0; c < best.k; ++c) {
    if (counts[c] == 0) continue;
    // Representative: interval closest to the centroid.
    std::size_t rep = 0;
    double rep_d = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < bbv.vectors.size(); ++i) {
      if (best.assignment[i] != c) continue;
      const double d = sq_distance(bbv.vectors[i], best.centroids[c]);
      if (d < rep_d) {
        rep_d = d;
        rep = i;
      }
    }
    sp.points.push_back(SimPoint{
        rep, static_cast<double>(counts[c]) /
                 static_cast<double>(bbv.n_intervals())});
  }
  std::sort(sp.points.begin(), sp.points.end(),
            [](const SimPoint& a, const SimPoint& b) {
              return a.interval_index < b.interval_index;
            });
  return sp;
}

}  // namespace

SimPoints choose_simpoints(const sim::Trace& trace,
                           std::size_t interval_length,
                           std::size_t max_clusters, std::uint64_t seed) {
  trace::Span span("workload.choose_simpoints", "workload");
  return pick_simpoints(collect_bbv(trace, interval_length, 15, seed),
                        max_clusters, seed);
}

sim::Trace extract_intervals(const sim::Trace& trace,
                             const SimPoints& points) {
  DSML_REQUIRE(!points.points.empty(), "extract_intervals: no points");
  sim::Trace out;
  out.instrs.reserve(points.points.size() * points.interval_length);
  for (const SimPoint& p : points.points) {
    const std::size_t begin = p.interval_index * points.interval_length;
    DSML_REQUIRE(begin + points.interval_length <= trace.size(),
                 "extract_intervals: interval out of range");
    out.instrs.insert(out.instrs.end(),
                      trace.instrs.begin() + static_cast<std::ptrdiff_t>(begin),
                      trace.instrs.begin() +
                          static_cast<std::ptrdiff_t>(begin +
                                                      points.interval_length));
  }
  return out;
}

Reduction reduce_trace(const AppProfile& profile, std::size_t n,
                       std::uint64_t seed, std::size_t interval_length,
                       std::size_t max_clusters) {
  static metrics::Counter& instructions =
      metrics::counter("workload.trace_instructions");
  DSML_REQUIRE(interval_length > 0,
               "reduce_trace: interval_length must be > 0");
  DSML_REQUIRE(n >= interval_length,
               "reduce_trace: trace shorter than one interval");
  // choose_simpoints' defaults: SimPoint's 15 dimensions, seed 42.
  constexpr std::size_t kDims = 15;
  constexpr std::uint64_t kSimPointSeed = 42;
  const std::size_t n_intervals = n / interval_length;

  // One pass over the trace: its BBVs, and the builder at each interval
  // start. The trailing partial interval is never read.
  std::vector<TraceBuilder> starts;
  BasicBlockVectors bbv;
  {
    trace::Span span("workload.generate_trace", "workload");
    TraceBuilder builder(profile, n, seed);
    BbvBuilder vectors(interval_length, kDims, kSimPointSeed, n_intervals);
    starts.reserve(n_intervals);
    for (std::size_t iv = 0; iv < n_intervals; ++iv) {
      starts.push_back(builder);
      for (std::size_t k = 0; k < interval_length; ++k) {
        vectors.add(builder.next());
      }
    }
    bbv = vectors.take();
    instructions.add(n);
  }

  Reduction out;
  {
    trace::Span span("workload.choose_simpoints", "workload");
    out.points = pick_simpoints(bbv, max_clusters, kSimPointSeed);
  }

  trace::Span span("workload.regenerate_intervals", "workload");
  const std::vector<SimPoint>& points = out.points.points;
  out.trace.instrs.resize(points.size() * interval_length);
  parallel_for(0, points.size(), [&](std::size_t p) {
    TraceBuilder builder = starts[points[p].interval_index];
    sim::Instr* dst = out.trace.instrs.data() + p * interval_length;
    for (std::size_t k = 0; k < interval_length; ++k) dst[k] = builder.next();
  });
  return out;
}

}  // namespace dsml::workload
