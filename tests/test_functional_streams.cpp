// The shared functional streams (sim/functional_streams.hpp) against their
// reference, FunctionalPass: every group a batch composes must carry the
// Outcome stream and the FunctionalStats that FunctionalPass::run gives the
// same configurations on the same trace. Streams are built on a four-thread
// pool and units walked by per-worker walkers, as simulate_batch does, so a
// worker's caches must be reset between the units it walks.
#include "sim/functional_streams.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "dse/sweep.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace dsml::sim {
namespace {

/// How one composed group differs from FunctionalPass::run on its members;
/// empty when it does not.
std::string compare_with_functional_pass(
    std::span<const ProcessorConfig> configs, const Trace& trace,
    std::span<const std::size_t> members, std::span<const Outcome> outcomes,
    const FunctionalStats& stats) {
  std::vector<ProcessorConfig> group;
  for (const std::size_t idx : members) group.push_back(configs[idx]);
  std::vector<Outcome> expected(trace.size());
  FunctionalPass pass(group);
  const FunctionalStats want = pass.run(trace.span(), expected);

  const std::string name = group.front().key();
  if (outcomes.size() != expected.size()) return name + ": outcome count";
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (outcomes[i] != expected[i]) {
      return name + ": outcome " + std::to_string(i) + " is " +
             std::to_string(outcomes[i]) + ", FunctionalPass gives " +
             std::to_string(expected[i]);
    }
  }
  const auto field = [&](const char* what, auto got, auto ref) {
    return got == ref ? std::string()
                      : name + ": " + what + " differs from FunctionalPass";
  };
  for (const std::string& diff :
       {field("branch_count", stats.branch_count, want.branch_count),
        field("mispredicts", stats.mispredicts, want.mispredicts),
        field("l1d_miss_rate", stats.l1d_miss_rate, want.l1d_miss_rate),
        field("l1i_miss_rate", stats.l1i_miss_rate, want.l1i_miss_rate),
        field("l2_miss_rate", stats.l2_miss_rate, want.l2_miss_rate),
        field("l3_miss_rate", stats.l3_miss_rate, want.l3_miss_rate),
        field("itlb_reach_kb", stats.itlb_reach_kb, want.itlb_reach_kb),
        field("itlb_miss_rate", stats.itlb_miss_rate, want.itlb_miss_rate),
        field("dtlb_reach_kb", stats.dtlb_reach_kb, want.dtlb_reach_kb),
        field("dtlb_miss_rate", stats.dtlb_miss_rate, want.dtlb_miss_rate)}) {
    if (!diff.empty()) return diff;
  }
  return {};
}

/// Builds the streams of `configs` on `pool` and walks every unit with one
/// walker per worker; expects each configuration in exactly one group and
/// every group equal to FunctionalPass. Returns the number of groups.
std::size_t expect_groups_match(ThreadPool& pool,
                                std::span<const ProcessorConfig> configs,
                                const Trace& trace,
                                const std::string& context) {
  const detail::FunctionalStreams streams(pool, configs, trace.span());
  // Indexed by a group's first member: groups never share a member, so no
  // two workers write one slot.
  std::vector<std::string> diffs(configs.size());
  std::vector<int> visits(configs.size(), 0);
  std::atomic<std::size_t> groups{0};
  std::atomic<std::size_t> next_unit{0};
  parallel_for(
      pool, 0, pool.size(),
      [&](std::size_t) {
        detail::UnitWalker walker(streams);
        for (std::size_t u = next_unit.fetch_add(1); u < streams.units();
             u = next_unit.fetch_add(1)) {
          walker.walk(u, [&](std::span<const std::size_t> members,
                             std::span<const Outcome> outcomes,
                             const FunctionalStats& stats) {
            groups.fetch_add(1);
            for (const std::size_t idx : members) ++visits[idx];
            diffs[members.front()] = compare_with_functional_pass(
                configs, trace, members, outcomes, stats);
          });
        }
      },
      /*grain=*/1);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(visits[i], 1) << context << ", configuration " << i;
    EXPECT_EQ(diffs[i], "") << context;
  }
  return groups.load();
}

TEST(FunctionalStreams, EveryGroupOfEveryAppMatchesFunctionalPass) {
  // test_sim_golden's fidelity: 4000 instructions per configuration.
  dse::SweepOptions tiny;
  tiny.full_trace_instructions = 20000;
  tiny.interval_instructions = 2000;
  tiny.max_clusters = 2;
  tiny.use_cache = false;
  const std::vector<ProcessorConfig> space = enumerate_design_space();
  ThreadPool pool(4);
  for (const char* app : {"applu", "equake", "gcc", "mcf", "mesa"}) {
    const dse::ReducedTrace reduced = dse::build_reduced_trace(app, tiny);
    EXPECT_EQ(expect_groups_match(pool, space, reduced.trace, app), 1008u)
        << app;
  }
}

TEST(FunctionalStreams, CraftedBatchOnAnEdgeTraceMatchesFunctionalPass) {
  // The batch meets the small core's TLB reaches first, but its bimodal
  // group has big cores only, so that group's slot 0 is the big reach; the
  // 2-level L3 group comes without its L3-less partner. Each instruction
  // sits on its own page of 16 MB of code, so both ITLB reaches miss and
  // every fetch misses the L1I and the L2; each load reads its own fetch
  // line, which its fetch has just brought into the L2.
  const std::vector<ProcessorConfig> space = enumerate_design_space();
  const std::vector<ProcessorConfig> configs = {space[0], space[9], space[13],
                                                space[48], space[9]};
  ASSERT_EQ(configs[0].itlb_size_kb, 256);
  ASSERT_EQ(configs[1].itlb_size_kb, 1024);
  ASSERT_EQ(configs[2].itlb_size_kb, 1024);
  ASSERT_TRUE(configs[3].has_l3());
  Trace trace = workload::generate_trace(workload::spec_profile("gcc"), 6000);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    Instr& ins = trace.instrs[i];
    ins.pc = 0x10000000 + (i * 7919 % 4096) * 4096;
    if (ins.op == OpClass::kLoad) ins.mem_addr = ins.pc + 8;
  }
  ThreadPool pool(2);
  EXPECT_EQ(expect_groups_match(pool, configs, trace, "edge trace"), 3u);
}

}  // namespace
}  // namespace dsml::sim
