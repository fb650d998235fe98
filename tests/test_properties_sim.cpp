// Property sweeps over the simulator: invariants that must hold for every
// configuration in the design space, checked on a random subset.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sim/core.hpp"
#include "support/reference_sim.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace dsml::sim {
namespace {

const Trace& shared_trace() {
  static const Trace trace =
      workload::generate_trace(workload::spec_profile("equake"), 20000);
  return trace;
}

std::vector<ProcessorConfig> random_configs(std::size_t count,
                                            std::uint64_t seed) {
  const auto space = enumerate_design_space();
  Rng rng(seed);
  std::vector<ProcessorConfig> out;
  for (std::size_t i : rng.sample_without_replacement(space.size(), count)) {
    out.push_back(space[i]);
  }
  return out;
}

class RandomConfigProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomConfigProperty, SimulationInvariants) {
  const Trace& trace = shared_trace();
  for (const auto& config : random_configs(8, GetParam())) {
    const SimResult result = simulate(config, trace);
    // Cycles bounded below by issue-width throughput and above by a full
    // serialisation at worst-case memory latency per instruction.
    EXPECT_GE(result.cycles, trace.size() / static_cast<std::size_t>(
                                                config.width))
        << config.key();
    EXPECT_LT(result.cycles, trace.size() * 500ULL) << config.key();
    // Rates are rates; counters are consistent.
    const SimStats& s = result.stats;
    EXPECT_EQ(s.instructions, trace.size());
    for (double rate :
         {s.l1d_miss_rate, s.l1i_miss_rate, s.l2_miss_rate, s.l3_miss_rate,
          s.branch_mispredict_rate, s.itlb_miss_rate, s.dtlb_miss_rate}) {
      EXPECT_GE(rate, 0.0) << config.key();
      EXPECT_LE(rate, 1.0) << config.key();
    }
    EXPECT_NEAR(s.ipc,
                static_cast<double>(s.instructions) /
                    static_cast<double>(s.cycles),
                1e-9);
    if (config.branch_predictor == BranchPredictorKind::kPerfect) {
      EXPECT_EQ(s.mispredicts, 0u) << config.key();
    }
  }
}

TEST_P(RandomConfigProperty, DeterministicAcrossRuns) {
  const Trace& trace = shared_trace();
  for (const auto& config : random_configs(4, GetParam() + 100)) {
    EXPECT_EQ(simulate(config, trace).cycles, simulate(config, trace).cycles)
        << config.key();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConfigProperty,
                         ::testing::Values(1, 2, 3, 4));

class AppTraceProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(AppTraceProperty, AllPredictorsBeatOrMatchNothingButPerfectIsBest) {
  const Trace trace =
      workload::generate_trace(workload::spec_profile(GetParam()), 20000);
  ProcessorConfig config;
  std::uint64_t perfect_cycles = 0;
  for (BranchPredictorKind kind :
       {BranchPredictorKind::kPerfect, BranchPredictorKind::kBimodal,
        BranchPredictorKind::kTwoLevel, BranchPredictorKind::kCombination}) {
    config.branch_predictor = kind;
    const auto result = simulate(config, trace);
    if (kind == BranchPredictorKind::kPerfect) {
      perfect_cycles = result.cycles;
    } else {
      EXPECT_GE(result.cycles, perfect_cycles)
          << GetParam() << " " << to_string(kind);
    }
  }
}

TEST_P(AppTraceProperty, UpgradingEverythingNeverHurts) {
  const Trace trace =
      workload::generate_trace(workload::spec_profile(GetParam()), 20000);
  ProcessorConfig weakest;
  weakest.l1d_size_kb = 16;
  weakest.l1i_size_kb = 16;
  weakest.l2_size_kb = 256;
  weakest.branch_predictor = BranchPredictorKind::kBimodal;
  weakest.width = 4;
  weakest.ruu_size = 128;
  weakest.lsq_size = 64;
  weakest.itlb_size_kb = 256;
  weakest.dtlb_size_kb = 512;
  weakest.fu = {4, 2, 2, 4, 2};
  ProcessorConfig strongest = weakest;
  strongest.l1d_size_kb = 64;
  strongest.l1i_size_kb = 64;
  strongest.l1d_line_b = 64;
  strongest.l1i_line_b = 64;
  strongest.l2_size_kb = 1024;
  strongest.l2_assoc = 8;
  strongest.l3_size_mb = 8;
  strongest.l3_line_b = 256;
  strongest.l3_assoc = 8;
  strongest.branch_predictor = BranchPredictorKind::kPerfect;
  strongest.width = 8;
  strongest.fu = {8, 4, 4, 8, 4};
  strongest.ruu_size = 256;
  strongest.lsq_size = 128;
  strongest.itlb_size_kb = 1024;
  strongest.dtlb_size_kb = 2048;
  EXPECT_LT(simulate(strongest, trace).cycles,
            simulate(weakest, trace).cycles)
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Apps, AppTraceProperty,
                         ::testing::Values("applu", "equake", "gcc", "mesa",
                                           "mcf"));

// ---------------------------------------------------------------------------
// Functional keys: which configurations may share a functional pass.

ProcessorConfig keyed_base() {
  ProcessorConfig c;
  c.branch_predictor = BranchPredictorKind::kTwoLevel;
  return c;
}

TEST(FunctionalKey, DesignSpaceHas1008DistinctKeys) {
  std::set<FunctionalKey> keys;
  for (const ProcessorConfig& c : enumerate_design_space()) {
    keys.insert(c.functional_key());
  }
  EXPECT_EQ(keys.size(), 1008u);
}

TEST(FunctionalKey, TimingOnlyFieldsShareAKey) {
  const ProcessorConfig base = keyed_base();
  std::vector<ProcessorConfig> variants(5, base);
  variants[0].width = 8;
  variants[1].fu = {8, 4, 4, 8, 4};
  variants[2].ruu_size = 256;
  variants[3].lsq_size = 128;
  variants[4].itlb_size_kb = 1024;
  variants[4].dtlb_size_kb = 2048;
  for (const ProcessorConfig& v : variants) {
    v.validate();
    EXPECT_EQ(v.functional_key(), base.functional_key()) << v.key();
  }
}

TEST(FunctionalKey, CacheAndPredictorFieldsSplitKeys) {
  const ProcessorConfig base = keyed_base();
  std::vector<ProcessorConfig> variants(9, base);
  variants[0].l1d_size_kb = 64;
  variants[1].l1d_line_b = 64;
  variants[2].l1i_size_kb = 16;
  variants[3].l1i_line_b = 64;
  variants[4].l2_size_kb = 1024;
  variants[5].l2_assoc = 8;
  variants[6].l3_size_mb = 8;
  variants[6].l3_line_b = 256;
  variants[6].l3_assoc = 8;
  variants[7].branch_predictor = BranchPredictorKind::kCombination;
  variants[8].issue_wrong = true;
  for (const ProcessorConfig& v : variants) {
    v.validate();
    EXPECT_NE(v.functional_key(), base.functional_key()) << v.key();
  }
}

TEST(FunctionalKey, PerfectPredictorIgnoresIssueWrong) {
  ProcessorConfig off;
  off.branch_predictor = BranchPredictorKind::kPerfect;
  ProcessorConfig on = off;
  on.issue_wrong = true;
  EXPECT_EQ(on.functional_key(), off.functional_key());
}

void expect_identical(const SimResult& a, const SimResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  const SimStats& x = a.stats;
  const SimStats& y = b.stats;
  EXPECT_EQ(x.instructions, y.instructions) << what;
  EXPECT_EQ(x.cycles, y.cycles) << what;
  EXPECT_EQ(x.ipc, y.ipc) << what;
  EXPECT_EQ(x.l1d_miss_rate, y.l1d_miss_rate) << what;
  EXPECT_EQ(x.l1i_miss_rate, y.l1i_miss_rate) << what;
  EXPECT_EQ(x.l2_miss_rate, y.l2_miss_rate) << what;
  EXPECT_EQ(x.l3_miss_rate, y.l3_miss_rate) << what;
  EXPECT_EQ(x.branch_mispredict_rate, y.branch_mispredict_rate) << what;
  EXPECT_EQ(x.itlb_miss_rate, y.itlb_miss_rate) << what;
  EXPECT_EQ(x.dtlb_miss_rate, y.dtlb_miss_rate) << what;
  EXPECT_EQ(x.branch_count, y.branch_count) << what;
  EXPECT_EQ(x.mispredicts, y.mispredicts) << what;
}

TEST(FunctionalKey, PerfectPredictorIssueWrongTwinsAreIdentical) {
  // The compute-bound, memory-heavy and code-heavy profiles.
  for (const char* app : {"applu", "mcf", "gcc"}) {
    const Trace trace =
        workload::generate_trace(workload::spec_profile(app), 30000);
    std::size_t perfect = 0;
    for (const ProcessorConfig& c : enumerate_design_space()) {
      if (c.branch_predictor != BranchPredictorKind::kPerfect ||
          c.issue_wrong || perfect++ % 24 != 0) {
        continue;  // every 24th of the 576 pairs keeps this quick
      }
      ProcessorConfig twin = c;
      twin.issue_wrong = true;
      expect_identical(simulate(c, trace), simulate(twin, trace),
                       std::string(app) + " " + c.key());
    }
  }
}

// ---------------------------------------------------------------------------
// The batch against the reference. simulate_batch shares predictor, TLB and
// L1 streams across a batch's groups and walks each L2 once per L3 pair;
// reference::simulate runs one FunctionalPass per configuration. Every batch
// must give every configuration what the reference gives it.

/// Traces aimed at the shared streams' edges, cut from one gcc trace.
std::vector<std::pair<std::string, Trace>> edge_traces() {
  const Trace base =
      workload::generate_trace(workload::spec_profile("gcc"), 3000, 5);
  const auto without = [&](OpClass op) {
    Trace t = base;
    for (Instr& ins : t.instrs) {
      if (ins.op == op) {
        ins.op = OpClass::kIntAlu;
        ins.taken = false;
      }
    }
    return t;
  };
  // Every instruction on its own page of 16 MB of code: both ITLB reaches
  // miss, and every fetch misses the L1I and the L2.
  Trace wide_code = base;
  for (std::size_t i = 0; i < wide_code.size(); ++i) {
    wide_code.instrs[i].pc = 0x10000000 + (i * 7919 % 4096) * 4096;
  }
  // A load that reads its own fetch line meets its fetch in the L2 within
  // one instruction, so their order sets which of the two misses.
  Trace own_line = wide_code;
  for (Instr& ins : own_line.instrs) {
    if (ins.op == OpClass::kLoad) ins.mem_addr = ins.pc + 8;
  }
  Trace one;
  for (const Instr& ins : base.instrs) {
    if (ins.op == OpClass::kLoad) {
      one.instrs.push_back(ins);
      break;
    }
  }
  return {{"no loads", without(OpClass::kLoad)},
          {"no stores", without(OpClass::kStore)},
          {"no branches", without(OpClass::kBranch)},
          {"one instruction", one},
          {"code beyond both ITLB reaches", wide_code},
          {"loads in their own fetch line", own_line}};
}

/// 1 to 64 configurations drawn with replacement, so some repeat.
std::vector<ProcessorConfig> random_batch(
    Rng& rng, const std::vector<ProcessorConfig>& space) {
  std::vector<ProcessorConfig> batch(1 + rng.below(64));
  for (ProcessorConfig& c : batch) c = space[rng.below(space.size())];
  return batch;
}

/// Batches whose groups' TLB slots differ from the batch's reach order.
/// Each design-space key holds a small and a big core per width and
/// issue_wrong, in that order, and its L3 twin sits 32 entries on.
std::vector<std::vector<ProcessorConfig>> crafted_batches(
    const std::vector<ProcessorConfig>& space) {
  return {
      // Small core first; a bimodal group of big cores only; a 2-level L3
      // group without its L3-less partner; a repeat.
      {space[0], space[9], space[13], space[48], space[9]},
      // Big core first; a bimodal group of small cores only.
      {space[1], space[8], space[12], space[8], space[2700]},
      // Small core first; groups with both reaches, entered big core
      // first, so their slots run opposite to the batch's.
      {space[0], space[4607], space[4606], space[4605], space[4604]},
      // A bimodal and a perfect-predictor L2 key: small cores without the
      // L3, big cores with it, so each key's two groups share no reach.
      {space[8], space[12], space[41], space[45], space[0], space[2],
       space[4], space[33], space[37]},
      // The same keys the other way round, a big core first: the L3
      // groups' only reach is the batch's second.
      {space[13], space[40], space[44], space[9], space[1], space[32],
       space[36], space[5]},
  };
}

/// One L2 key's configurations, small cores on one side of the L3 and big
/// cores on the other, so the key's two groups use different TLB reaches;
/// in random order, so either side may come first.
std::vector<ProcessorConfig> split_reach_batch(
    Rng& rng, const std::vector<ProcessorConfig>& space) {
  // Each block of 64 holds one L1/L2 geometry: L3, predictor, width,
  // issue_wrong and core size, outermost first.
  const std::size_t predictor = rng.below(4);
  const std::size_t base = 64 * rng.below(space.size() / 64) + 8 * predictor;
  const std::size_t wrong = rng.below(2);
  const std::size_t big_without_l3 = rng.below(2);
  std::vector<ProcessorConfig> batch;
  for (std::size_t l3 = 0; l3 < 2; ++l3) {
    const std::size_t big = l3 == 0 ? big_without_l3 : 1 - big_without_l3;
    for (std::size_t width = 0; width < 2; ++width) {
      for (std::size_t w = 0; w < 2; ++w) {
        // issue_wrong splits keys, except under the perfect predictor.
        if (predictor != 0 && w != wrong) continue;
        if (rng.chance(0.75)) {
          batch.push_back(space[base + 32 * l3 + 4 * width + 2 * w + big]);
        }
      }
    }
  }
  if (batch.empty()) batch.push_back(space[base]);
  for (std::size_t i = batch.size(); i > 1; --i) {
    std::swap(batch[i - 1], batch[rng.below(i)]);
  }
  return batch;
}

void expect_batch_matches_reference(ThreadPool& pool,
                                    const std::vector<ProcessorConfig>& batch,
                                    const Trace& trace,
                                    const std::string& context) {
  const std::vector<SimResult> results = simulate_batch(pool, batch, trace);
  ASSERT_EQ(results.size(), batch.size()) << context;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_identical(results[i], reference::simulate(batch[i], trace),
                     context + ", configuration " + std::to_string(i) + " " +
                         batch[i].key());
  }
}

TEST(BatchProperty, RandomSubsetsMatchSimulateOnRandomTraces) {
  const std::vector<ProcessorConfig> space = enumerate_design_space();
  constexpr const char* kApps[] = {"applu", "equake", "gcc", "mcf", "mesa"};
  Rng rng(2024);
  ThreadPool pool(3);
  for (int t = 0; t < 5; ++t) {
    const char* app = kApps[rng.below(5)];
    const Trace trace = workload::generate_trace(
        workload::spec_profile(app), 500 + rng.below(4000), rng.below(1000) + 1);
    const std::string context = std::string(app) + " trace " +
                                std::to_string(t);
    for (int b = 0; b < 3; ++b) {
      expect_batch_matches_reference(pool, random_batch(rng, space), trace,
                                     context + ", random batch " +
                                         std::to_string(b));
      expect_batch_matches_reference(pool, split_reach_batch(rng, space),
                                     trace,
                                     context + ", split-reach batch " +
                                         std::to_string(b));
    }
    const auto crafted = crafted_batches(space);
    for (std::size_t b = 0; b < crafted.size(); ++b) {
      expect_batch_matches_reference(pool, crafted[b], trace,
                                     context + ", crafted batch " +
                                         std::to_string(b));
    }
  }
}

TEST(BatchProperty, RandomSubsetsMatchSimulateOnEdgeTraces) {
  const std::vector<ProcessorConfig> space = enumerate_design_space();
  Rng rng(77);
  ThreadPool pool(3);
  for (const auto& [name, trace] : edge_traces()) {
    ASSERT_FALSE(trace.instrs.empty()) << name;
    for (int b = 0; b < 2; ++b) {
      expect_batch_matches_reference(pool, random_batch(rng, space), trace,
                                     name + ", random batch " +
                                         std::to_string(b));
      expect_batch_matches_reference(pool, split_reach_batch(rng, space),
                                     trace,
                                     name + ", split-reach batch " +
                                         std::to_string(b));
    }
    const auto crafted = crafted_batches(space);
    for (std::size_t b = 0; b < crafted.size(); ++b) {
      expect_batch_matches_reference(pool, crafted[b], trace,
                                     name + ", crafted batch " +
                                         std::to_string(b));
    }
  }
}

}  // namespace
}  // namespace dsml::sim
