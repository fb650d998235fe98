#include "sim/core.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "sim/timing_kernel.hpp"
#include "support/reference_sim.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace dsml::sim {
namespace {

Trace memory_heavy_trace() {
  static const Trace trace =
      workload::generate_trace(workload::spec_profile("mcf"), 30000);
  return trace;
}

Trace compute_trace() {
  static const Trace trace =
      workload::generate_trace(workload::spec_profile("applu"), 30000);
  return trace;
}

Trace code_heavy_trace() {
  static const Trace trace =
      workload::generate_trace(workload::spec_profile("gcc"), 30000);
  return trace;
}

ProcessorConfig base_config() {
  ProcessorConfig c;
  c.l1d_size_kb = 32;
  c.l1d_line_b = 32;
  c.l1i_size_kb = 32;
  c.l1i_line_b = 32;
  c.l2_size_kb = 256;
  c.l2_assoc = 4;
  c.branch_predictor = BranchPredictorKind::kBimodal;
  c.width = 4;
  c.ruu_size = 128;
  c.lsq_size = 64;
  c.itlb_size_kb = 256;
  c.dtlb_size_kb = 512;
  c.fu = {4, 2, 2, 4, 2};
  return c;
}

TEST(Core, Deterministic) {
  const Trace trace = memory_heavy_trace();
  const auto a = simulate(base_config(), trace);
  const auto b = simulate(base_config(), trace);
  EXPECT_EQ(a.cycles, b.cycles);
}

TEST(Core, EmptyTraceThrows) {
  Trace empty;
  EXPECT_THROW(simulate(base_config(), empty), InvalidArgument);
}

TEST(Core, IpcBoundedByWidth) {
  const auto result = simulate(base_config(), compute_trace());
  EXPECT_GT(result.stats.ipc, 0.0);
  EXPECT_LE(result.stats.ipc, 4.0);
  EXPECT_EQ(result.stats.instructions, 30000u);
  EXPECT_EQ(result.stats.cycles, result.cycles);
}

TEST(Core, CyclesAtLeastInstructionsOverWidth) {
  const auto result = simulate(base_config(), compute_trace());
  EXPECT_GE(result.cycles, 30000u / 4);
}

TEST(Core, LargerL2Helps) {
  ProcessorConfig small = base_config();
  ProcessorConfig large = base_config();
  large.l2_size_kb = 1024;
  const Trace trace = memory_heavy_trace();
  EXPECT_LT(simulate(large, trace).cycles, simulate(small, trace).cycles);
}

TEST(Core, L3PresenceHelpsMemoryBoundApp) {
  ProcessorConfig no_l3 = base_config();
  ProcessorConfig with_l3 = base_config();
  with_l3.l3_size_mb = 8;
  with_l3.l3_line_b = 256;
  with_l3.l3_assoc = 8;
  // L3 benefit needs the multi-MB working-set tiers to see reuse, which
  // takes a longer trace than the other tests use.
  const Trace trace =
      workload::generate_trace(workload::spec_profile("mcf"), 200000);
  const auto without = simulate(no_l3, trace);
  const auto with = simulate(with_l3, trace);
  EXPECT_LT(with.cycles, without.cycles);
  // At least a few percent for the canonical pointer chaser.
  EXPECT_LT(static_cast<double>(with.cycles),
            0.97 * static_cast<double>(without.cycles));
}

TEST(Core, PerfectBranchPredictionHelpsBranchyApp) {
  ProcessorConfig bimodal = base_config();
  ProcessorConfig perfect = base_config();
  perfect.branch_predictor = BranchPredictorKind::kPerfect;
  const Trace trace = code_heavy_trace();
  const auto r_bimodal = simulate(bimodal, trace);
  const auto r_perfect = simulate(perfect, trace);
  EXPECT_LT(r_perfect.cycles, r_bimodal.cycles);
  EXPECT_DOUBLE_EQ(r_perfect.stats.branch_mispredict_rate, 0.0);
  EXPECT_GT(r_bimodal.stats.branch_mispredict_rate, 0.0);
}

TEST(Core, WiderMachineFasterOnComputeCode) {
  ProcessorConfig narrow = base_config();
  ProcessorConfig wide = base_config();
  wide.width = 8;
  wide.fu = {8, 4, 4, 8, 4};
  const Trace trace = compute_trace();
  EXPECT_LT(simulate(wide, trace).cycles, simulate(narrow, trace).cycles);
}

TEST(Core, BiggerWindowNeverSlower) {
  ProcessorConfig small = base_config();
  ProcessorConfig big = base_config();
  big.ruu_size = 256;
  big.lsq_size = 128;
  big.itlb_size_kb = 1024;
  big.dtlb_size_kb = 2048;
  const Trace trace = memory_heavy_trace();
  EXPECT_LE(simulate(big, trace).cycles, simulate(small, trace).cycles);
}

TEST(Core, LargerL1IHelpsLargeCodeApp) {
  ProcessorConfig small = base_config();
  small.l1i_size_kb = 16;
  ProcessorConfig large = base_config();
  large.l1i_size_kb = 64;
  const Trace trace = code_heavy_trace();
  const auto r_small = simulate(small, trace);
  const auto r_large = simulate(large, trace);
  EXPECT_LT(r_large.cycles, r_small.cycles);
  EXPECT_LT(r_large.stats.l1i_miss_rate, r_small.stats.l1i_miss_rate);
}

TEST(Core, StatsRatesAreRates) {
  const auto result = simulate(base_config(), memory_heavy_trace());
  const SimStats& s = result.stats;
  for (double rate : {s.l1d_miss_rate, s.l1i_miss_rate, s.l2_miss_rate,
                      s.branch_mispredict_rate, s.itlb_miss_rate,
                      s.dtlb_miss_rate}) {
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
  }
  EXPECT_EQ(s.l3_miss_rate, 0.0);  // no L3 configured
  EXPECT_GT(s.branch_count, 0u);
  EXPECT_GE(s.branch_count, s.mispredicts);
}

TEST(Core, MemoryBoundAppSlowerThanComputeApp) {
  const auto mcf = simulate(base_config(), memory_heavy_trace());
  const auto applu = simulate(base_config(), compute_trace());
  EXPECT_LT(mcf.stats.ipc, applu.stats.ipc);
}

TEST(Core, IssueWrongChangesTiming) {
  ProcessorConfig off = base_config();
  ProcessorConfig on = base_config();
  on.issue_wrong = true;
  const Trace trace = code_heavy_trace();
  const auto r_off = simulate(off, trace);
  const auto r_on = simulate(on, trace);
  EXPECT_NE(r_off.cycles, r_on.cycles);
  // Wrong-path issue resumes fetch earlier after mispredicts: on a branchy
  // trace it should not hurt.
  EXPECT_LE(r_on.cycles, r_off.cycles);
}

TEST(Core, FunctionalPassRejectsConfigurationsWithDifferentKeys) {
  ProcessorConfig other = base_config();
  other.l2_size_kb = 1024;
  const std::vector<ProcessorConfig> mixed{base_config(), other};
  EXPECT_THROW(reference::FunctionalPass{mixed}, InvalidArgument);
  EXPECT_THROW(reference::FunctionalPass{std::span<const ProcessorConfig>{}},
               InvalidArgument);
}

TEST(Core, TimingPassNeedsItsTlbReachModelled) {
  const ProcessorConfig small = base_config();
  ProcessorConfig big = small;
  big.itlb_size_kb = 1024;
  big.dtlb_size_kb = 2048;
  const Trace trace = compute_trace();
  std::vector<Outcome> outcomes(trace.size());
  reference::FunctionalPass pass(std::span(&small, 1));
  const FunctionalStats stats = pass.run(trace.span(), outcomes);
  EXPECT_THROW(run_timing_pass(big, trace.span(), outcomes, stats),
               InvalidArgument);
}

TEST(Core, BatchMatchesSimulateOnAnySubset) {
  // Mixed keys, a repeated configuration and a perfect-predictor twin pair.
  const std::vector<ProcessorConfig> space = enumerate_design_space();
  std::vector<ProcessorConfig> configs;
  for (const std::size_t idx : {7u, 4607u, 1151u, 7u, 2048u, 2049u, 0u, 2u}) {
    configs.push_back(space[idx]);
  }
  const Trace trace = code_heavy_trace();
  const std::vector<SimResult> batch = simulate_batch(configs, trace);
  ASSERT_EQ(batch.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const SimResult one = reference::simulate(configs[i], trace);
    EXPECT_EQ(batch[i].cycles, one.cycles) << configs[i].key();
    EXPECT_EQ(batch[i].stats.l1i_miss_rate, one.stats.l1i_miss_rate);
    EXPECT_EQ(batch[i].stats.dtlb_miss_rate, one.stats.dtlb_miss_rate);
  }
  EXPECT_TRUE(simulate_batch({}, trace).empty());
}

TEST(Core, BatchRejectsAnInvalidConfigurationBeforeSimulating) {
  const std::vector<ProcessorConfig> space = enumerate_design_space();
  std::vector<ProcessorConfig> configs(space.begin(), space.begin() + 40);
  configs.back().l1d_size_kb = 128;  // not a Table 1 value
  const Trace trace = compute_trace();
  std::vector<metrics::Counter*> counters;
  for (const char* name :
       {"sim.functional_passes", "sim.timing_passes", "sim.l1_passes",
        "sim.l2_passes", "sim.instructions"}) {
    counters.push_back(&metrics::counter(name));
  }
  std::vector<std::uint64_t> before;
  for (const metrics::Counter* c : counters) before.push_back(c->value());
  EXPECT_THROW(simulate_batch(configs, trace), InvalidArgument);
  for (std::size_t k = 0; k < counters.size(); ++k) {
    EXPECT_EQ(counters[k]->value(), before[k]) << "counter " << k;
  }
}

TEST(Core, SimulateIsAOneConfigurationBatch) {
  // One configuration: an L1D and an L1I walk, one L2 key, and one timing
  // on the one-lane kernel, whatever the host's vector width.
  const Trace trace = memory_heavy_trace();
  const std::vector<std::pair<const char*, std::uint64_t>> expected{
      {"sim.functional_passes", 1}, {"sim.timing_passes", 1},
      {"sim.l1_passes", 2},         {"sim.l2_passes", 1},
      {"sim.lane_passes", 0},       {"sim.instructions", trace.size()}};
  std::vector<std::uint64_t> before;
  for (const auto& e : expected) {
    before.push_back(metrics::counter(e.first).value());
  }
  metrics::Gauge& lane_width = metrics::gauge("sim.lane_width");
  lane_width.set(0);
  simulate(base_config(), trace);
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(metrics::counter(expected[k].first).value() - before[k],
              expected[k].second)
        << expected[k].first;
  }
  EXPECT_EQ(lane_width.value(), static_cast<double>(detail::lane_width()));
}

}  // namespace
}  // namespace dsml::sim
