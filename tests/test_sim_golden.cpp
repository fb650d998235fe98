// The simulator golden: every cycle count of the full design space for all
// five apps (as one hash per app) and every SimStats field for eight fixed
// configurations, at the fidelity test_fleet.cpp sweeps at. The batch path
// must reproduce it with one and with four pool threads, and on the eight
// configurations so must simulate(), a one-configuration batch, and the
// frozen reference (support/reference_sim.hpp), which no code in src/ runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "dse/sweep.hpp"
#include "sim/core.hpp"
#include "support/reference_sim.hpp"

#ifndef DSML_REPO_ROOT
#error "DSML_REPO_ROOT must be defined by the build"
#endif

namespace dsml::sim {
namespace {

constexpr const char* kApps[] = {"applu", "equake", "gcc", "mcf", "mesa"};

/// All four predictors, both issue_wrong values, L3 on and off.
constexpr std::size_t kStatsConfigs[] = {0,    907,  1401, 2290,
                                         2668, 3349, 4071, 4254};

dse::SweepOptions tiny_sweep() {
  dse::SweepOptions opt;
  opt.full_trace_instructions = 20000;
  opt.interval_instructions = 2000;
  opt.max_clusters = 2;
  opt.use_cache = false;
  return opt;
}

/// FNV-1a-64 over each cycle count's 8 little-endian bytes.
std::uint64_t fnv1a64(const std::vector<std::uint64_t>& cycles) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::uint64_t c : cycles) {
    for (int b = 0; b < 8; ++b) {
      h ^= (c >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::string sweep_line(const std::string& app,
                       const dse::ReducedTrace& reduced,
                       const std::vector<std::uint64_t>& cycles) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "sweep %s simpoints %zu instructions %zu fnv1a64 %016" PRIx64,
                app.c_str(), reduced.simpoint_count, reduced.trace.size(),
                fnv1a64(cycles));
  return buf;
}

std::string stats_line(const std::string& app, std::size_t index,
                       const ProcessorConfig& config, const SimResult& r) {
  const SimStats& s = r.stats;
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "stats %s %zu %s cycles %" PRIu64 " instructions %" PRIu64
      " stats.cycles %" PRIu64
      " ipc %.17g l1d_miss_rate %.17g l1i_miss_rate %.17g l2_miss_rate %.17g"
      " l3_miss_rate %.17g branch_mispredict_rate %.17g itlb_miss_rate %.17g"
      " dtlb_miss_rate %.17g branch_count %" PRIu64 " mispredicts %" PRIu64,
      app.c_str(), index, config.key().c_str(), r.cycles, s.instructions,
      s.cycles, s.ipc, s.l1d_miss_rate, s.l1i_miss_rate, s.l2_miss_rate,
      s.l3_miss_rate, s.branch_mispredict_rate, s.itlb_miss_rate,
      s.dtlb_miss_rate, s.branch_count, s.mispredicts);
  return buf;
}

/// The golden's data lines, comments dropped.
std::vector<std::string> golden_lines() {
  const std::string path =
      std::string(DSML_REPO_ROOT) + "/tests/data/sim/sweep_golden.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

/// Compares computed lines with the golden, reporting each difference with
/// the value computed.
void expect_golden(const std::vector<std::string>& computed,
                   const std::string& context) {
  const std::vector<std::string> golden = golden_lines();
  ASSERT_EQ(computed.size(), golden.size()) << context;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(computed[i], golden[i]) << context << ", golden line " << i;
  }
}

std::vector<std::string> batch_lines(ThreadPool& pool) {
  const std::vector<ProcessorConfig> space = enumerate_design_space();
  std::vector<std::string> lines;
  for (const char* app : kApps) {
    const dse::ReducedTrace reduced =
        dse::build_reduced_trace(app, tiny_sweep());
    const std::vector<SimResult> results =
        simulate_batch(pool, space, reduced.trace);
    std::vector<std::uint64_t> cycles;
    for (const SimResult& r : results) cycles.push_back(r.cycles);
    lines.push_back(sweep_line(app, reduced, cycles));
    for (const std::size_t idx : kStatsConfigs) {
      lines.push_back(stats_line(app, idx, space[idx], results[idx]));
    }
  }
  return lines;
}

TEST(SimGolden, BatchMatchesWithOnePoolThread) {
  ThreadPool pool(1);
  expect_golden(batch_lines(pool), "1 pool thread");
}

TEST(SimGolden, BatchMatchesWithFourPoolThreads) {
  ThreadPool pool(4);
  expect_golden(batch_lines(pool), "4 pool threads");
}

/// Compares the golden's stats lines with `simulate_one` on each of their
/// configurations.
template <class Simulate>
void expect_stats_lines(Simulate simulate_one) {
  const std::vector<ProcessorConfig> space = enumerate_design_space();
  const std::vector<std::string> golden = golden_lines();
  std::size_t line = 0;
  for (const char* app : kApps) {
    const dse::ReducedTrace reduced =
        dse::build_reduced_trace(app, tiny_sweep());
    ++line;  // the sweep line
    for (const std::size_t idx : kStatsConfigs) {
      ASSERT_LT(line, golden.size());
      EXPECT_EQ(stats_line(app, idx, space[idx],
                           simulate_one(space[idx], reduced.trace)),
                golden[line++]);
    }
  }
}

TEST(SimGolden, OneConfigPathMatchesTheStatsLines) {
  expect_stats_lines(simulate);
}

TEST(SimGolden, ReferenceMatchesTheStatsLines) {
  expect_stats_lines(reference::simulate);
}

TEST(SimGolden, PublicSweepMatchesTheHash) {
  const std::vector<std::string> golden = golden_lines();
  const dse::SweepResult sweep =
      dse::run_design_space_sweep("mcf", tiny_sweep());
  std::vector<std::uint64_t> cycles;
  for (const double c : sweep.cycles) {
    cycles.push_back(static_cast<std::uint64_t>(c));
  }
  const std::string line =
      sweep_line("mcf", dse::build_reduced_trace("mcf", tiny_sweep()), cycles);
  EXPECT_NE(std::find(golden.begin(), golden.end(), line), golden.end())
      << line;
}

}  // namespace
}  // namespace dsml::sim
