#include "workload/simpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "common/metrics.hpp"
#include "dse/sweep.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace dsml::workload {
namespace {

TEST(Bbv, IntervalCount) {
  const auto trace = generate_trace(spec_profile("gcc"), 50000);
  const auto bbv = collect_bbv(trace, 5000);
  EXPECT_EQ(bbv.n_intervals(), 10u);
  EXPECT_EQ(bbv.interval_length, 5000u);
}

TEST(Bbv, ProjectedDimensions) {
  const auto trace = generate_trace(spec_profile("gcc"), 20000);
  const auto bbv = collect_bbv(trace, 5000, 15);
  for (const auto& v : bbv.vectors) {
    EXPECT_EQ(v.size(), 15u);
  }
}

TEST(Bbv, VectorsBoundedByL1Normalisation) {
  // After L1 normalisation and ±1 projection, every component is in [-1, 1].
  const auto trace = generate_trace(spec_profile("mesa"), 40000);
  const auto bbv = collect_bbv(trace, 4000);
  for (const auto& v : bbv.vectors) {
    for (double x : v) {
      EXPECT_GE(x, -1.0);
      EXPECT_LE(x, 1.0);
    }
  }
}

TEST(Bbv, TraceShorterThanIntervalThrows) {
  const auto trace = generate_trace(spec_profile("applu"), 1000);
  EXPECT_THROW(collect_bbv(trace, 5000), InvalidArgument);
}

TEST(Bbv, DeterministicForSeed) {
  const auto trace = generate_trace(spec_profile("gcc"), 30000);
  const auto a = collect_bbv(trace, 5000, 15, 9);
  const auto b = collect_bbv(trace, 5000, 15, 9);
  EXPECT_EQ(a.vectors, b.vectors);
}

TEST(Bbv, VectorsArePinnedToTheLastBit) {
  // Each interval's L1 normalisation and projection sum its block counts in
  // the order its hash map iterates them, which depends on the map's bucket
  // history: one map reused across intervals moves the last bits here
  // without moving any SimPoint the other tests check. The constant is an
  // FNV-style hash over the bits of every coordinate.
  const auto trace = generate_trace(spec_profile("gcc"), 20000);
  const auto bbv = collect_bbv(trace, 2000);
  std::uint64_t hash = 1469598103934665603ULL;
  for (const auto& v : bbv.vectors) {
    for (const double x : v) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &x, sizeof bits);
      hash = (hash ^ bits) * 1099511628211ULL;
    }
  }
  EXPECT_EQ(hash, 0x2294080b553f2c0dULL);
}

// ---------------------------------------------------------------------------

std::vector<std::vector<double>> blob_points() {
  // Three well-separated clusters in 2D.
  std::vector<std::vector<double>> points;
  Rng rng(5);
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 20; ++i) {
      points.push_back({centers[c][0] + rng.gaussian(0.0, 0.3),
                        centers[c][1] + rng.gaussian(0.0, 0.3)});
    }
  }
  return points;
}

TEST(KMeans, RecoversSeparatedClusters) {
  const auto points = blob_points();
  Rng rng(1);
  const auto result = k_means(points, 3, rng);
  // Points from the same blob share an assignment.
  for (int c = 0; c < 3; ++c) {
    const std::size_t first = result.assignment[c * 20];
    for (int i = 1; i < 20; ++i) {
      EXPECT_EQ(result.assignment[c * 20 + i], first);
    }
  }
  EXPECT_LT(result.inertia, 60.0 * 0.5);
}

TEST(KMeans, InertiaNonIncreasingInK) {
  const auto points = blob_points();
  Rng rng(2);
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k <= 5; ++k) {
    Rng local(3);
    const auto result = k_means(points, k, local);
    EXPECT_LE(result.inertia, prev * 1.05);  // allow seeding noise
    prev = result.inertia;
  }
}

TEST(KMeans, KOneCentroidIsMean) {
  const std::vector<std::vector<double>> points = {{0.0}, {2.0}, {4.0}};
  Rng rng(4);
  const auto result = k_means(points, 1, rng);
  EXPECT_NEAR(result.centroids[0][0], 2.0, 1e-9);
}

TEST(KMeans, InvalidKThrows) {
  const std::vector<std::vector<double>> points = {{0.0}, {1.0}};
  Rng rng(6);
  EXPECT_THROW(k_means(points, 0, rng), InvalidArgument);
  EXPECT_THROW(k_means(points, 3, rng), InvalidArgument);
}

TEST(KMeansBic, PrefersTrueClusterCount) {
  const auto points = blob_points();
  double best_bic = -std::numeric_limits<double>::infinity();
  std::size_t best_k = 0;
  for (std::size_t k = 1; k <= 6; ++k) {
    Rng rng(7);
    const auto result = k_means(points, k, rng);
    const double bic = k_means_bic(points, result);
    if (bic > best_bic) {
      best_bic = bic;
      best_k = k;
    }
  }
  EXPECT_EQ(best_k, 3u);
}

// ---------------------------------------------------------------------------

TEST(SimPoints, WeightsSumToOne) {
  const auto trace = generate_trace(spec_profile("gcc"), 60000);
  const auto points = choose_simpoints(trace, 5000, 5);
  double total = 0.0;
  for (const auto& p : points.points) total += p.weight;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GE(points.points.size(), 1u);
  EXPECT_LE(points.points.size(), 5u);
}

TEST(SimPoints, IndicesValidAndSorted) {
  const auto trace = generate_trace(spec_profile("mesa"), 60000);
  const auto points = choose_simpoints(trace, 6000, 4);
  for (std::size_t i = 0; i < points.points.size(); ++i) {
    EXPECT_LT(points.points[i].interval_index, points.n_intervals);
    if (i > 0) {
      EXPECT_GT(points.points[i].interval_index,
                points.points[i - 1].interval_index);
    }
  }
}

TEST(SimPoints, DistinctPhasesGetDistinctPoints) {
  // Concatenate two applications with wildly different code: SimPoint must
  // recognise the two execution regimes and pick at least one
  // representative in each half.
  const auto first = generate_trace(spec_profile("applu"), 40000);
  const auto second = generate_trace(spec_profile("gcc"), 40000);
  sim::Trace combined;
  combined.instrs = first.instrs;
  combined.instrs.insert(combined.instrs.end(), second.instrs.begin(),
                         second.instrs.end());
  const auto points = choose_simpoints(combined, 8000, 6);
  ASSERT_GE(points.points.size(), 2u);
  bool in_first_half = false;
  bool in_second_half = false;
  for (const auto& p : points.points) {
    if (p.interval_index < 5) in_first_half = true;
    if (p.interval_index >= 5) in_second_half = true;
  }
  EXPECT_TRUE(in_first_half);
  EXPECT_TRUE(in_second_half);
}

TEST(ExtractIntervals, ConcatenatesRepresentatives) {
  const auto trace = generate_trace(spec_profile("equake"), 60000);
  const auto points = choose_simpoints(trace, 5000, 4);
  const auto reduced = extract_intervals(trace, points);
  EXPECT_EQ(reduced.size(), points.points.size() * 5000);
  // First extracted instruction matches the first interval's first instr.
  const std::size_t first =
      points.points.front().interval_index * 5000;
  EXPECT_EQ(reduced.instrs.front().pc, trace.instrs[first].pc);
}

// ---------------------------------------------------------------------------

bool same_instr(const sim::Instr& a, const sim::Instr& b) {
  return a.pc == b.pc && a.mem_addr == b.mem_addr && a.target == b.target &&
         a.dep1 == b.dep1 && a.dep2 == b.dep2 && a.op == b.op &&
         a.taken == b.taken;
}

class StreamedReduction : public ::testing::TestWithParam<std::string> {};

// dse::build_reduced_trace streams the full trace once (reduce_trace) and
// regenerates the chosen intervals on the pool; it must give exactly what
// the materialised pipeline gives, and count the full trace once.
TEST_P(StreamedReduction, EqualsTheMaterialisedPipeline) {
  struct Fidelity {
    std::size_t full, interval, clusters;
  };
  // The CLI's defaults; the sim goldens'; a trailing partial interval; and
  // intervals shorter than a block, so one block holds several starts.
  const Fidelity fidelities[] = {{600000, 30000, 4}, {20000, 2000, 2},
                                 {123457, 7001, 6},  {3000, 1, 3},
                                 {3000, 2, 3},       {3000, 3, 4},
                                 {3000, 7, 4}};
  const std::string app = GetParam();
  metrics::Counter& generated = metrics::counter("workload.trace_instructions");
  for (const std::uint64_t seed : {0, 9}) {
    for (const Fidelity& f : fidelities) {
      SCOPED_TRACE(app + " seed " + std::to_string(seed) + " at " +
                   std::to_string(f.full) + "/" + std::to_string(f.interval) +
                   "/" + std::to_string(f.clusters));
      dse::SweepOptions options;
      options.full_trace_instructions = f.full;
      options.interval_instructions = f.interval;
      options.max_clusters = f.clusters;
      options.trace_seed = seed;
      const std::uint64_t before = generated.value();
      const dse::ReducedTrace streamed = dse::build_reduced_trace(app, options);
      EXPECT_EQ(generated.value() - before, f.full);

      const sim::Trace full = generate_trace(spec_profile(app), f.full, seed);
      const SimPoints points = choose_simpoints(full, f.interval, f.clusters);
      const sim::Trace expected = extract_intervals(full, points);
      EXPECT_EQ(streamed.simpoint_count, points.points.size());
      ASSERT_EQ(streamed.trace.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_TRUE(same_instr(streamed.trace.instrs[i], expected.instrs[i]))
            << "instruction " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, StreamedReduction,
                         ::testing::ValuesIn(spec_profile_names()));

TEST(ReduceTrace, RejectsATraceShorterThanOneInterval) {
  EXPECT_THROW(reduce_trace(spec_profile("gcc"), 999, 0, 1000, 2),
               InvalidArgument);
  EXPECT_THROW(reduce_trace(spec_profile("gcc"), 1000, 0, 0, 2),
               InvalidArgument);
}

}  // namespace
}  // namespace dsml::workload
