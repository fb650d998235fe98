// The shared functional streams (sim/functional_streams.hpp) against their
// reference, reference::FunctionalPass (support/reference_sim.hpp). A batch
// composes one Outcome stream per unit (L2 key), the L3-present group's
// when the unit has one, with TLB bits at the batch's reach indices. Read
// at each group's own reach slots, and with level 2 read as memory for an
// L3-absent group, it must equal what the reference's run gives that group
// on the same trace, and every group's FunctionalStats must equal the
// pass's. Streams are built on a four-thread pool and units walked by
// per-worker walkers, as simulate_batch does, so a worker's caches must be
// reset between the units it walks.
#include "sim/functional_streams.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "dse/sweep.hpp"
#include "support/reference_sim.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace dsml::sim {
namespace {

namespace outcome = detail::outcome;

/// Outcome `o` of `stream` as a group with reach slots `g` and `has_l3`
/// records it: TLB bits moved from the stream's reach slots to the group's
/// and, without an L3, level 2 (an L2 miss the L3 served) read as memory.
/// Empty when the stream lacks one of the group's reaches.
std::optional<Outcome> as_group_records(Outcome o,
                                        const detail::OutcomeStream& stream,
                                        const FunctionalStats& g,
                                        bool has_l3) {
  const auto move_tlb_bits = [&](const std::array<int, 2>& stream_reaches,
                                 const std::array<int, 2>& group_reaches,
                                 unsigned shift, unsigned& out) {
    out &= ~(3u << shift);
    for (std::size_t slot = 0; slot < 2; ++slot) {
      if (group_reaches[slot] == 0) continue;
      std::size_t r = 0;
      while (r < 2 && stream_reaches[r] != group_reaches[slot]) ++r;
      if (r == 2) return false;
      out |= ((o >> (shift + r)) & 1u) << (shift + slot);
    }
    return true;
  };
  unsigned out = o;
  if (!move_tlb_bits(stream.itlb_reach_kb, g.itlb_reach_kb,
                     outcome::kItlbMissShift, out) ||
      !move_tlb_bits(stream.dtlb_reach_kb, g.dtlb_reach_kb,
                     outcome::kDtlbMissShift, out)) {
    return std::nullopt;
  }
  if (!has_l3) {
    for (const unsigned shift :
         {outcome::kFetchLevelShift, outcome::kLoadLevelShift}) {
      if (((out >> shift) & 3u) == 2) out |= 3u << shift;
    }
  }
  return static_cast<Outcome>(out);
}

/// How one group of a composed unit differs from the reference's
/// FunctionalPass::run on its members; empty when it does not.
std::string compare_with_functional_pass(
    std::span<const ProcessorConfig> configs, const Trace& trace,
    const detail::OutcomeStream& stream,
    const detail::UnitWalker::GroupView& group_view) {
  std::vector<ProcessorConfig> group;
  for (const std::size_t idx : group_view.members) {
    group.push_back(configs[idx]);
  }
  std::vector<Outcome> expected(trace.size());
  reference::FunctionalPass pass(group);
  const FunctionalStats want = pass.run(trace.span(), expected);
  const FunctionalStats& stats = group_view.stats;
  const bool has_l3 = group.front().has_l3();

  const std::string name = group.front().key();
  if (stream.outcomes.size() != expected.size()) {
    return name + ": outcome count";
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const std::optional<Outcome> got =
        as_group_records(stream.outcomes[i], stream, stats, has_l3);
    if (!got) return name + ": the stream lacks one of the group's reaches";
    if (*got != expected[i]) {
      return name + ": outcome " + std::to_string(i) + " is " +
             std::to_string(stream.outcomes[i]) + " in the stream, " +
             std::to_string(*got) + " for the group; FunctionalPass gives " +
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

/// Units and groups one batch walked.
struct Walked {
  std::size_t units = 0;
  std::size_t groups = 0;
};

/// Builds the streams of `configs` on `pool` and walks every unit with one
/// walker per worker; expects each configuration in exactly one group, the
/// groups of a unit to share an L2 key, L3-absent first, and every group
/// equal to FunctionalPass.
Walked expect_groups_match(ThreadPool& pool,
                           std::span<const ProcessorConfig> configs,
                           const Trace& trace, const std::string& context) {
  const detail::FunctionalStreams streams(pool, configs, trace.span());
  // Indexed by a group's first member: groups never share a member, so no
  // two workers write one slot.
  std::vector<std::string> diffs(configs.size());
  std::vector<int> visits(configs.size(), 0);
  std::atomic<std::size_t> units{0};
  std::atomic<std::size_t> groups{0};
  std::atomic<std::size_t> next_unit{0};
  parallel_for(
      pool, 0, pool.size(),
      [&](std::size_t) {
        detail::UnitWalker walker(streams);
        for (std::size_t u = next_unit.fetch_add(1); u < streams.units();
             u = next_unit.fetch_add(1)) {
          walker.walk(u, [&](const detail::OutcomeStream& stream,
                             std::span<const detail::UnitWalker::GroupView>
                                 unit_groups) {
            units.fetch_add(1);
            groups.fetch_add(unit_groups.size());
            for (const auto& g : unit_groups) {
              for (const std::size_t idx : g.members) ++visits[idx];
              diffs[g.members.front()] =
                  compare_with_functional_pass(configs, trace, stream, g);
            }
            if (unit_groups.size() == 2) {
              const ProcessorConfig& absent =
                  configs[unit_groups[0].members.front()];
              ProcessorConfig present =
                  configs[unit_groups[1].members.front()];
              if (absent.has_l3() || !present.has_l3()) {
                diffs[unit_groups[0].members.front()] += " L3 order";
              }
              FunctionalKey key = present.functional_key();
              key.l3_size_mb = 0;
              if (!(key == absent.functional_key())) {
                diffs[unit_groups[0].members.front()] += " L2 keys differ";
              }
            }
          });
        }
      },
      /*grain=*/1);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(visits[i], 1) << context << ", configuration " << i;
    EXPECT_EQ(diffs[i], "") << context;
  }
  return {units.load(), groups.load()};
}

/// test_sim_golden's fidelity: 4000 instructions per configuration.
dse::SweepOptions golden_fidelity() {
  dse::SweepOptions tiny;
  tiny.full_trace_instructions = 20000;
  tiny.interval_instructions = 2000;
  tiny.max_clusters = 2;
  tiny.use_cache = false;
  return tiny;
}

TEST(FunctionalStreams, EveryGroupOfEveryAppMatchesFunctionalPass) {
  const std::vector<ProcessorConfig> space = enumerate_design_space();
  ThreadPool pool(4);
  for (const char* app : {"applu", "equake", "gcc", "mcf", "mesa"}) {
    const dse::ReducedTrace reduced =
        dse::build_reduced_trace(app, golden_fidelity());
    const Walked walked = expect_groups_match(pool, space, reduced.trace, app);
    EXPECT_EQ(walked.units, 504u) << app;
    EXPECT_EQ(walked.groups, 1008u) << app;
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
  const Walked walked = expect_groups_match(pool, configs, trace, "edge trace");
  EXPECT_EQ(walked.units, 3u);
  EXPECT_EQ(walked.groups, 3u);
}

TEST(FunctionalStreams, L3AbsentConfigurationsTimeAlikeOnTheirL3TwinsStream) {
  // simulate_batch times an L2 key's L3-absent configurations against the
  // L3-present group's stream. Through the one-lane kernel, each must take
  // the cycles its own group's stream gives it, on every L2 key of the five
  // apps: level 2 there is an L2 miss the L3 served, which costs an
  // L3-absent configuration memory.
  std::map<FunctionalKey, std::vector<ProcessorConfig>> groups;
  for (const ProcessorConfig& c : enumerate_design_space()) {
    groups[c.functional_key()].push_back(c);
  }
  // Each L2 key's L3-absent and L3-present groups.
  std::vector<std::pair<const std::vector<ProcessorConfig>*,
                        const std::vector<ProcessorConfig>*>>
      keys;
  for (const auto& [key, present] : groups) {
    if (key.l3_size_mb == 0) continue;
    FunctionalKey l2_key = key;
    l2_key.l3_size_mb = 0;
    keys.emplace_back(&groups.at(l2_key), &present);
  }
  ASSERT_EQ(keys.size(), 504u);
  ThreadPool pool(4);
  for (const char* app : {"applu", "equake", "gcc", "mcf", "mesa"}) {
    const dse::ReducedTrace reduced =
        dse::build_reduced_trace(app, golden_fidelity());
    const Trace& trace = reduced.trace;
    std::vector<std::string> diffs(keys.size());  // one slot per key
    parallel_for(pool, 0, keys.size(), [&](std::size_t k) {
      const std::vector<ProcessorConfig>& absent = *keys[k].first;
      std::vector<Outcome> own(trace.size());
      std::vector<Outcome> twin(trace.size());
      const FunctionalStats own_stats =
          reference::FunctionalPass(absent).run(trace.span(), own);
      const FunctionalStats twin_stats =
          reference::FunctionalPass(*keys[k].second).run(trace.span(), twin);
      for (const ProcessorConfig& c : absent) {
        const std::uint64_t want =
            run_timing_pass(c, trace.span(), own, own_stats).cycles;
        const std::uint64_t got =
            run_timing_pass(c, trace.span(), twin, twin_stats).cycles;
        if (got != want && diffs[k].empty()) {
          diffs[k] = c.key() + ": " + std::to_string(got) +
                     " cycles on the twin's stream, " + std::to_string(want) +
                     " on its own";
        }
      }
    });
    const auto differ =
        std::count_if(diffs.begin(), diffs.end(),
                      [](const std::string& d) { return !d.empty(); });
    EXPECT_EQ(differ, 0)
        << app << ": L2 keys differ, first "
        << *std::max_element(diffs.begin(), diffs.end(),
                             [](const std::string& a, const std::string& b) {
                               return a.empty() && !b.empty();
                             });
  }
}

}  // namespace
}  // namespace dsml::sim
