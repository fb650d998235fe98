// Bit identity of the timing kernel's instantiations
// (sim/timing_kernel.hpp): every lane of a vector pass must equal
// run_timing_pass, the one-lane kernel, on the same configuration against
// its own group's functional pass, in cycles and in every SimStats field.
// The functional passes are the reference's (support/reference_sim.hpp).
// Every vector kernel the host runs is checked (four lanes with AVX2, eight
// with AVX-512F), including lanes from both groups of an L2 key on the
// L3-present group's stream, as simulate_batch times them. A kernel the
// host lacks is skipped with a note naming the feature; without AVX2 the
// tests skip, and the sweep golden covers the one-lane path.
#include "sim/timing_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "support/reference_sim.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace dsml::sim {
namespace {

using detail::kLimiterSlots;
using detail::LaneState;

/// The vector kernels, widest last, and the CPU feature each needs.
struct Kernel {
  std::size_t lanes;
  const char* feature;
};
constexpr Kernel kKernels[] = {{4, "AVX2"}, {8, "AVX-512F"}};
constexpr std::size_t kMaxLanes = 8;

void expect_same(const SimResult& lane, const SimResult& one,
                 const std::string& context) {
  EXPECT_EQ(lane.cycles, one.cycles) << context;
  const SimStats& a = lane.stats;
  const SimStats& b = one.stats;
  EXPECT_EQ(a.instructions, b.instructions) << context;
  EXPECT_EQ(a.cycles, b.cycles) << context;
  EXPECT_EQ(a.ipc, b.ipc) << context;
  EXPECT_EQ(a.l1d_miss_rate, b.l1d_miss_rate) << context;
  EXPECT_EQ(a.l1i_miss_rate, b.l1i_miss_rate) << context;
  EXPECT_EQ(a.l2_miss_rate, b.l2_miss_rate) << context;
  EXPECT_EQ(a.l3_miss_rate, b.l3_miss_rate) << context;
  EXPECT_EQ(a.branch_mispredict_rate, b.branch_mispredict_rate) << context;
  EXPECT_EQ(a.itlb_miss_rate, b.itlb_miss_rate) << context;
  EXPECT_EQ(a.dtlb_miss_rate, b.dtlb_miss_rate) << context;
  EXPECT_EQ(a.branch_count, b.branch_count) << context;
  EXPECT_EQ(a.mispredicts, b.mispredicts) << context;
}

/// Outcomes of one functional pass over a group on a trace.
struct Functional {
  std::vector<Outcome> outcomes;
  FunctionalStats stats;

  /// The outcomes, numbered by the pass's own reach slots.
  detail::OutcomeStream stream() const {
    return {outcomes, stats.itlb_reach_kb, stats.dtlb_reach_kb};
  }
};

Functional run_functional(const std::vector<ProcessorConfig>& group,
                          const Trace& trace) {
  Functional f;
  f.outcomes.resize(trace.size());
  reference::FunctionalPass pass(group);
  f.stats = pass.run(trace.span(), f.outcomes);
  return f;
}

/// A configuration to time and the functional pass of its own group.
struct Timed {
  ProcessorConfig config;
  const Functional* own = nullptr;
};

std::vector<Timed> of_group(const std::vector<ProcessorConfig>& configs,
                            const Functional& own) {
  std::vector<Timed> out;
  for (const ProcessorConfig& c : configs) out.push_back({c, &own});
  return out;
}

template <std::size_t N>
void expect_kernel_matches(const std::vector<Timed>& timed,
                           const Trace& trace, const Functional& on,
                           const std::string& context) {
  std::vector<detail::Lane> lanes;
  for (const Timed& t : timed) lanes.push_back({t.config, &t.own->stats});
  auto state = std::make_unique<LaneState<N>>();
  std::vector<SimResult> results(lanes.size());
  detail::run_timing_lanes<N>(lanes, trace.span(), on.stream(), *state,
                              results);
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const Timed& t = timed[l];
    expect_same(results[l],
                run_timing_pass(t.config, trace.span(), t.own->outcomes,
                                t.own->stats),
                context + ", " + std::to_string(N) + " lanes, lane " +
                    std::to_string(l) + " " + t.config.key());
  }
}

/// Times `timed` in one pass of every vector kernel the host runs that has
/// room for them, against the outcomes of `on`, and each configuration
/// through the one-lane kernel against its own group's pass, and compares
/// them.
void expect_lanes_match(const std::vector<Timed>& timed, const Trace& trace,
                        const Functional& on, const std::string& context) {
  if (timed.size() <= 4 && detail::lanes_supported(4)) {
    expect_kernel_matches<4>(timed, trace, on, context);
  }
  if (timed.size() <= 8 && detail::lanes_supported(8)) {
    expect_kernel_matches<8>(timed, trace, on, context);
  }
}

/// One functional group's configurations, timed against its own pass.
void expect_lanes_match(const std::vector<ProcessorConfig>& lanes,
                        const Trace& trace, const Functional& f,
                        const std::string& context) {
  expect_lanes_match(of_group(lanes, f), trace, f, context);
}

/// `c` with the design space's L3.
ProcessorConfig with_l3(ProcessorConfig c) {
  c.l3_size_mb = 8;
  c.l3_line_b = 256;
  c.l3_assoc = 8;
  return c;
}

/// `c` without an L3.
ProcessorConfig without_l3(ProcessorConfig c) {
  c.l3_size_mb = 0;
  c.l3_line_b = 0;
  c.l3_assoc = 0;
  return c;
}

std::vector<ProcessorConfig> with_l3(std::vector<ProcessorConfig> group) {
  for (ProcessorConfig& c : group) c = with_l3(c);
  return group;
}

/// A random cache geometry with `predictor` and `issue_wrong`.
ProcessorConfig random_geometry(Rng& rng, BranchPredictorKind predictor,
                                bool issue_wrong) {
  constexpr int kL1Sizes[] = {16, 32, 64};
  ProcessorConfig c;
  c.l1d_size_kb = kL1Sizes[rng.below(3)];
  c.l1i_size_kb = kL1Sizes[rng.below(3)];
  c.l1d_line_b = rng.chance(0.5) ? 32 : 64;
  c.l1i_line_b = c.l1d_line_b;
  c.l2_size_kb = rng.chance(0.5) ? 256 : 1024;
  c.l2_assoc = rng.chance(0.5) ? 4 : 8;
  if (rng.chance(0.5)) {
    c.l3_size_mb = 8;
    c.l3_line_b = 256;
    c.l3_assoc = 8;
  }
  c.branch_predictor = predictor;
  c.issue_wrong = issue_wrong;
  return c;
}

/// Every timing variant of `geometry` that validate() accepts: width, FU
/// mix, RUU, LSQ and both TLB reaches vary independently (64 in all), so
/// lanes differ in more than the design space's tied pairs.
std::vector<ProcessorConfig> timing_variants(const ProcessorConfig& geometry) {
  std::vector<ProcessorConfig> out;
  for (const int width : {4, 8}) {
    for (const bool wide_fu : {false, true}) {
      for (const int ruu : {128, 256}) {
        for (const int lsq : {64, 128}) {
          for (const int itlb : {256, 1024}) {
            for (const int dtlb : {512, 2048}) {
              ProcessorConfig c = geometry;
              c.width = width;
              c.fu = wide_fu ? FunctionalUnitMix{8, 4, 4, 8, 4}
                             : FunctionalUnitMix{4, 2, 2, 4, 2};
              c.ruu_size = ruu;
              c.lsq_size = lsq;
              c.itlb_size_kb = itlb;
              c.dtlb_size_kb = dtlb;
              out.push_back(c);
            }
          }
        }
      }
    }
  }
  return out;
}

/// The design space's four timings of one geometry: width x core size.
std::vector<ProcessorConfig> sweep_timings(const ProcessorConfig& geometry) {
  std::vector<ProcessorConfig> out;
  for (const ProcessorConfig& c : enumerate_design_space()) {
    if (c.functional_key() == geometry.functional_key() &&
        c.issue_wrong == geometry.issue_wrong) {
      out.push_back(c);
    }
  }
  return out;
}

/// A configuration with the design space's default geometry and core.
ProcessorConfig base_config(int width, bool big) {
  ProcessorConfig c;
  c.branch_predictor = BranchPredictorKind::kBimodal;
  c.width = width;
  c.fu = width == 8 ? FunctionalUnitMix{8, 4, 4, 8, 4}
                    : FunctionalUnitMix{4, 2, 2, 4, 2};
  c.ruu_size = big ? 256 : 128;
  c.lsq_size = big ? 128 : 64;
  c.itlb_size_kb = big ? 1024 : 256;
  c.dtlb_size_kb = big ? 2048 : 512;
  return c;
}

class TimingLanes : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const Kernel& k : kKernels) {
      if (!detail::lanes_supported(k.lanes)) {
        std::printf("note: %zu-lane kernel skipped: no %s on this host\n",
                    k.lanes, k.feature);
      }
    }
    if (detail::lane_width() == 1) {
      GTEST_SKIP() << "no vector timing kernel on this host: no AVX2";
    }
  }
};

TEST_F(TimingLanes, RandomGroupsMatchTheOneLaneKernel) {
  Rng rng(17);
  constexpr const char* kApps[] = {"mcf", "gcc", "applu"};
  for (const BranchPredictorKind predictor :
       {BranchPredictorKind::kPerfect, BranchPredictorKind::kBimodal,
        BranchPredictorKind::kTwoLevel, BranchPredictorKind::kCombination}) {
    for (const bool issue_wrong : {false, true}) {
      const ProcessorConfig geometry =
          random_geometry(rng, predictor, issue_wrong);
      const char* app = kApps[rng.below(3)];
      const Trace trace = workload::generate_trace(
          workload::spec_profile(app), 12000, rng.below(1000) + 1);
      std::vector<ProcessorConfig> group = timing_variants(geometry);
      if (predictor == BranchPredictorKind::kPerfect) {
        // issue_wrong twins share the key, so they share the pass.
        for (ProcessorConfig twin : timing_variants(geometry)) {
          twin.issue_wrong = !issue_wrong;
          group.push_back(twin);
        }
      }
      const Functional f = run_functional(group, trace);
      const std::string context = std::string(app) + " " + geometry.key();

      // 1 to 8 lanes drawn with replacement, so lanes may repeat; each
      // kernel with room for them takes every draw.
      for (std::size_t count = 1; count <= kMaxLanes; ++count) {
        for (int draw = 0; draw < 3; ++draw) {
          std::vector<ProcessorConfig> lanes;
          for (std::size_t l = 0; l < count; ++l) {
            lanes.push_back(group[rng.below(group.size())]);
          }
          expect_lanes_match(lanes, trace, f, context);
        }
      }
      // The sweep's own lanes, and one of them duplicated.
      const std::vector<ProcessorConfig> sweep = sweep_timings(geometry);
      ASSERT_EQ(sweep.size(), 4u);
      expect_lanes_match(sweep, trace, f, context + " sweep");
      expect_lanes_match({sweep[2], sweep[0], sweep[2], sweep[3]}, trace, f,
                         context + " duplicated lane");
      if (predictor == BranchPredictorKind::kPerfect) {
        ProcessorConfig twin = sweep[1];
        twin.issue_wrong = !twin.issue_wrong;
        expect_lanes_match({sweep[1], twin, sweep[3]}, trace, f,
                           context + " perfect twins");
      }
    }
  }
}

TEST_F(TimingLanes, BothGroupsOfAnL2KeyShareTheL3GroupsStream) {
  // simulate_batch times an L2 key's L3-absent configurations against its
  // L3-present group's stream, where level 2 is an L2 miss the L3 served.
  // The L3-absent group's own pass numbers its reaches big core first, the
  // L3 group's small core first, so each lane reads the stream's TLB bits
  // at slots other than its group's.
  Rng rng(23);
  constexpr const char* kApps[] = {"mcf", "gcc", "applu", "equake", "mesa"};
  for (int key = 0; key < 8; ++key) {
    const auto predictor = static_cast<BranchPredictorKind>(rng.below(4));
    const bool issue_wrong = rng.chance(0.5);
    const ProcessorConfig geometry =
        random_geometry(rng, predictor, issue_wrong);
    const char* app = kApps[rng.below(5)];
    const Trace trace = workload::generate_trace(
        workload::spec_profile(app), 12000, rng.below(1000) + 1);
    std::vector<ProcessorConfig> absent = timing_variants(without_l3(geometry));
    std::reverse(absent.begin(), absent.end());
    const std::vector<ProcessorConfig> present =
        timing_variants(with_l3(geometry));
    const Functional own = run_functional(absent, trace);
    const Functional on = run_functional(present, trace);
    ASSERT_NE(own.stats.itlb_reach_kb, on.stats.itlb_reach_kb);
    const std::string context = std::string(app) + " " + geometry.key();

    // The sweep's unit: four timings of each group, eight lanes, and each
    // group's four alone.
    const std::vector<Timed> sweep_absent =
        of_group(sweep_timings(without_l3(geometry)), own);
    const std::vector<Timed> sweep_present =
        of_group(sweep_timings(with_l3(geometry)), on);
    std::vector<Timed> unit = sweep_absent;
    unit.insert(unit.end(), sweep_present.begin(), sweep_present.end());
    expect_lanes_match(unit, trace, on, context + " sweep unit");
    expect_lanes_match(sweep_absent, trace, on, context + " L3-absent lanes");
    // Random draws from both groups.
    for (std::size_t count = 1; count <= kMaxLanes; ++count) {
      std::vector<Timed> lanes;
      for (std::size_t l = 0; l < count; ++l) {
        lanes.push_back(rng.chance(0.5)
                            ? Timed{absent[rng.below(absent.size())], &own}
                            : Timed{present[rng.below(present.size())], &on});
      }
      expect_lanes_match(lanes, trace, on, context + " mixed draw");
    }
  }
}

// Synthetic traces aimed at the kernel's edges. Every trace runs against
// the four lanes {4-wide small, 4-wide big, 8-wide small, 8-wide big} and
// a mix whose RUU, LSQ, width and FU mix all differ lane to lane.

/// Appends one instruction at the next pc.
void emit(Trace& t, OpClass op, std::uint32_t dep1, std::uint32_t dep2,
          std::uint64_t mem_addr = 0, bool taken = false) {
  Instr ins;
  ins.pc = 0x400000 + 4 * (t.instrs.size() % 4096);
  ins.op = op;
  ins.dep1 = dep1;
  ins.dep2 = dep2;
  ins.mem_addr = mem_addr;
  ins.taken = taken;
  ins.target = ins.pc + 64;
  t.instrs.push_back(ins);
}

void expect_synthetic_trace_matches(const Trace& trace,
                                    const std::string& name) {
  const std::vector<ProcessorConfig> sweep = {
      base_config(4, false), base_config(4, true), base_config(8, false),
      base_config(8, true)};
  ProcessorConfig mixed_a = base_config(8, false);
  mixed_a.fu = {4, 2, 2, 4, 2};
  mixed_a.lsq_size = 128;
  ProcessorConfig mixed_b = base_config(4, true);
  mixed_b.fu = {8, 4, 4, 8, 4};
  mixed_b.lsq_size = 64;
  std::vector<ProcessorConfig> group = sweep;
  group.push_back(mixed_a);
  group.push_back(mixed_b);
  const Functional f = run_functional(group, trace);
  expect_lanes_match(sweep, trace, f, name + " sweep lanes");
  expect_lanes_match({mixed_a, sweep[1], mixed_b, sweep[2]}, trace, f,
                     name + " mixed lanes");
  expect_lanes_match({sweep[3], mixed_b, sweep[0]}, trace, f,
                     name + " three lanes");
  expect_lanes_match({sweep[0], mixed_a, sweep[1], sweep[2], mixed_b,
                      sweep[3], sweep[1], mixed_a},
                     trace, f, name + " eight lanes");
  expect_lanes_match({mixed_b, sweep[2], sweep[0], mixed_a, sweep[3]}, trace,
                     f, name + " five lanes");

  // The same configurations with an L3, and the L3-less ones timed against
  // that group's stream beside them.
  const Functional f3 = run_functional(with_l3(group), trace);
  std::vector<Timed> unit = of_group(sweep, f);
  for (const Timed& t : of_group(with_l3(sweep), f3)) unit.push_back(t);
  expect_lanes_match(unit, trace, f3, name + " L2 key");
  expect_lanes_match({{mixed_a, &f}, {with_l3(mixed_b), &f3}, {sweep[3], &f},
                      {mixed_b, &f}, {with_l3(sweep[0]), &f3}},
                     trace, f3, name + " mixed L2 key");
}

TEST_F(TimingLanes, DependencyDistancesAtTheRingEdges) {
  // 0 is no producer; 1 the previous instruction; 255/256 and 511/512
  // either side of the RUU sizes and of the ring's last tracked slot;
  // 2^32-1 is never tracked. Loads and multiplies between them give the
  // producers different completion times.
  constexpr std::uint32_t kDistances[] = {0,   1,   255,       256,
                                          511, 512, 0xffffffffu};
  Trace trace;
  for (std::size_t i = 0; i < 6000; ++i) {
    const std::uint32_t dep1 = kDistances[i % 7];
    const std::uint32_t dep2 = kDistances[(i / 7) % 7];
    switch (i % 5) {
      case 0:
        emit(trace, OpClass::kLoad, dep1, dep2, 0x10000000 + (i % 97) * 4096);
        break;
      case 1:
        emit(trace, OpClass::kIntMult, dep1, dep2);
        break;
      case 2:
        emit(trace, OpClass::kFpMult, dep1, dep2);
        break;
      default:
        emit(trace, OpClass::kIntAlu, dep1, dep2);
        break;
    }
  }
  expect_synthetic_trace_matches(trace, "dependency distances");
}

TEST_F(TimingLanes, LongLatencyLoadRunsWrapTheRuuAndLsqRings) {
  // Loads that miss every cache and TLB hold their window entries for
  // hundreds of cycles, so dispatch waits on look-back slots and both rings
  // wrap many times. A run of such loads fills the LSQ first (they are
  // independent, so no late-ready load books the memory ports ahead); one
  // such load followed by independent ALU work fills the RUU, which the LSQ
  // never sees.
  Trace trace;
  std::uint64_t far = 0x40000000;
  for (int run = 0; run < 12; ++run) {
    for (int k = 0; k < 700; ++k) {
      far += 3 * 1024 * 1024 + 64 * static_cast<std::uint64_t>(k % 7);
      emit(trace, OpClass::kLoad, 0, 0, far);
      if (k % 4 == 0) emit(trace, OpClass::kIntAlu, 0, 0);
      if (k % 9 == 0) emit(trace, OpClass::kStore, 0, 0, far + 8);
    }
    for (int k = 0; k < 300; ++k) emit(trace, OpClass::kIntAlu, 1, 0);
    for (int miss = 0; miss < 4; ++miss) {
      far += 7 * 1024 * 1024;
      emit(trace, OpClass::kLoad, 0, 0, far);
      for (int k = 0; k < 400; ++k) emit(trace, OpClass::kIntAlu, 0, 0);
    }
  }
  expect_synthetic_trace_matches(trace, "long-latency loads");
}

TEST_F(TimingLanes, IssueBurstsWalkPastFullCyclesAndReuseStaleSlots) {
  // A load that misses to memory, then a burst of independent ops that all
  // read it: they become ready in one cycle, so issue claims walk past full
  // cycles and each pool books units ahead. The miss also jumps the clock
  // past the limiter ring, so the next claims land on stale slots.
  Trace trace;
  std::uint64_t far = 0x80000000;
  for (int burst = 0; burst < 60; ++burst) {
    far += 5 * 1024 * 1024;
    emit(trace, OpClass::kLoad, 0, 0, far);
    for (std::uint32_t k = 1; k <= 40; ++k) {
      constexpr OpClass kMix[] = {OpClass::kIntAlu, OpClass::kIntMult,
                                  OpClass::kLoad, OpClass::kFpAlu,
                                  OpClass::kFpMult, OpClass::kStore};
      const OpClass op = kMix[(k + static_cast<std::uint32_t>(burst)) % 6];
      emit(trace, op, k, 0, 0x20000000 + 64 * k);
    }
    // Independent work: dispatch bursts limited by width alone.
    for (int k = 0; k < 64; ++k) emit(trace, OpClass::kIntAlu, 0, 0);
    emit(trace, OpClass::kBranch, 1, 0, 0, burst % 3 == 0);
  }
  expect_synthetic_trace_matches(trace, "issue bursts");
}

template <std::size_t N>
void expect_bad_lanes_rejected(const Trace& trace) {
  const std::vector<ProcessorConfig> small = {base_config(4, false)};
  const Functional f = run_functional(small, trace);
  const Functional both = run_functional(
      {base_config(4, false), base_config(4, true)}, trace);
  auto state = std::make_unique<LaneState<N>>();
  std::vector<SimResult> results(N + 1);
  const auto run = [&](const std::vector<detail::Lane>& lanes,
                       const Functional& on) {
    detail::run_timing_lanes<N>(lanes, trace.span(), on.stream(), *state,
                                std::span(results).first(lanes.size()));
  };
  const std::string context = std::to_string(N) + " lanes";
  const detail::Lane one_small{base_config(4, false), &f.stats};
  EXPECT_THROW(run(std::vector<detail::Lane>(N + 1, one_small), f),
               InvalidArgument)
      << context;
  EXPECT_THROW(run({}, f), InvalidArgument) << context;
  EXPECT_THROW(detail::run_timing_lanes<N>(
                   {&one_small, 1}, trace.span(), f.stream(), *state,
                   std::span(results).first(2)),
               InvalidArgument)
      << context;
  // The stream modelled only the small core's TLB reaches.
  const detail::Lane big{base_config(4, true), &both.stats};
  EXPECT_THROW(run({big}, f), InvalidArgument) << context;
  // The stream modelled both, the lane's group only the small core's.
  const detail::Lane big_in_small{base_config(4, true), &f.stats};
  EXPECT_THROW(run({big_in_small}, both), InvalidArgument) << context;
}

TEST_F(TimingLanes, RejectsBadLaneCountsAndUnmodelledReaches) {
  const Trace trace =
      workload::generate_trace(workload::spec_profile("gcc"), 4000);
  for (const Kernel& k : kKernels) {
    if (!detail::lanes_supported(k.lanes)) {
      // A kernel the host lacks refuses to run.
      const Functional f = run_functional({base_config(4, false)}, trace);
      const detail::Lane lane{base_config(4, false), &f.stats};
      std::vector<SimResult> result(1);
      if (k.lanes == 8) {
        auto state = std::make_unique<LaneState<8>>();
        EXPECT_THROW(detail::run_timing_lanes<8>({&lane, 1}, trace.span(),
                                                 f.stream(), *state, result),
                     StateError);
      }
      continue;
    }
    if (k.lanes == 4) expect_bad_lanes_rejected<4>(trace);
    if (k.lanes == 8) expect_bad_lanes_rejected<8>(trace);
  }
}

/// Vector passes simulate_batch makes for a unit of `timings` distinct
/// timings on a host whose widest kernel has `width` lanes: one per `width`
/// while at least three remain.
std::uint64_t expected_lane_passes(std::size_t timings, std::size_t width) {
  std::uint64_t passes = 0;
  while (width > 1 && timings >= 3) {
    timings -= std::min(width, timings);
    ++passes;
  }
  return passes;
}

TEST_F(TimingLanes, BatchTimesGroupsOfThreeOrMoreInLanes) {
  // One group with k distinct timings: passes of the widest kernel while at
  // least three timings remain, one-lane passes for the rest. Four lanes
  // take 0, 0, 1, 1, 1, 1, 2, 2, 2 passes for k = 1..9, eight lanes 0, 0,
  // then 1 for every k.
  const std::size_t width = detail::lane_width();
  ASSERT_TRUE(width == 4 || width == 8) << width;
  constexpr std::uint64_t kFourLanes[] = {0, 0, 1, 1, 1, 1, 2, 2, 2};
  constexpr std::uint64_t kEightLanes[] = {0, 0, 1, 1, 1, 1, 1, 1, 1};
  const std::uint64_t* expected = width == 8 ? kEightLanes : kFourLanes;
  const Trace trace =
      workload::generate_trace(workload::spec_profile("mcf"), 6000);
  ProcessorConfig geometry = base_config(4, false);
  const std::vector<ProcessorConfig> variants = timing_variants(geometry);
  metrics::Counter& lane_passes = metrics::counter("sim.lane_passes");
  metrics::Counter& timing_passes = metrics::counter("sim.timing_passes");
  metrics::Gauge& lane_width = metrics::gauge("sim.lane_width");
  ThreadPool pool(2);
  for (std::size_t k = 1; k <= 9; ++k) {
    ASSERT_EQ(expected[k - 1], expected_lane_passes(k, width));
    // Every variant twice: duplicates share their first occurrence's pass.
    std::vector<ProcessorConfig> configs;
    for (std::size_t i = 0; i < k; ++i) configs.push_back(variants[i * 7]);
    for (std::size_t i = 0; i < k; ++i) configs.push_back(variants[i * 7]);
    const std::uint64_t lanes0 = lane_passes.value();
    const std::uint64_t timing0 = timing_passes.value();
    lane_width.set(0);
    const std::vector<SimResult> batch = simulate_batch(pool, configs, trace);
    EXPECT_EQ(lane_passes.value() - lanes0, expected[k - 1])
        << k << " timings";
    EXPECT_EQ(timing_passes.value() - timing0, k) << k << " timings";
    EXPECT_EQ(lane_width.value(), static_cast<double>(width));
    for (std::size_t i = 0; i < configs.size(); ++i) {
      expect_same(batch[i], reference::simulate(configs[i], trace),
                  std::to_string(k) + " timings, " + configs[i].key());
    }
  }
  // Both groups of an L2 key share the unit's passes: k timings of each.
  for (std::size_t k = 1; k <= 4; ++k) {
    std::vector<ProcessorConfig> configs;
    for (std::size_t i = 0; i < k; ++i) {
      configs.push_back(variants[i * 9]);
      configs.push_back(with_l3(variants[i * 9 + 1]));
    }
    const std::uint64_t lanes0 = lane_passes.value();
    const std::uint64_t timing0 = timing_passes.value();
    const std::vector<SimResult> batch = simulate_batch(pool, configs, trace);
    EXPECT_EQ(lane_passes.value() - lanes0, expected_lane_passes(2 * k, width))
        << k << " timings per group";
    EXPECT_EQ(timing_passes.value() - timing0, 2 * k);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      expect_same(batch[i], reference::simulate(configs[i], trace),
                  std::to_string(k) + " timings per group, " +
                      configs[i].key());
    }
  }
}

// claim_slot probes a limiter slot in one compare. It must claim the same
// cycle and leave every slot word the same as the two-condition probe it
// replaced, whatever cycle a probed slot names: the probed one, an earlier
// one, a later one, or none.

/// The two-condition limiter probe, kept as the reference.
template <std::size_t N>
std::uint64_t two_condition_claim(std::uint64_t (*slots)[kLimiterSlots][N],
                                  std::size_t limiter, std::size_t lane,
                                  std::uint64_t earliest,
                                  std::uint64_t width) {
  for (std::uint64_t c = earliest;; ++c) {
    std::uint64_t& slot = slots[limiter][c & (kLimiterSlots - 1)][lane];
    const bool stale = (slot >> detail::kCountBits) != c;
    if (stale | ((slot & detail::kCountMask) < width)) {
      slot = stale ? (c << detail::kCountBits) | 1 : slot + 1;
      return c;
    }
  }
}

/// What the probes of a claim sequence found at their first slot.
struct ProbeMix {
  std::uint64_t earlier = 0;  ///< a slot naming an earlier cycle
  std::uint64_t later = 0;    ///< a slot naming a later cycle
  std::uint64_t full = 0;     ///< a full slot, so the claim walked on
};

/// Claims `claims` random cycles of random limiters and lanes of N-lane
/// slots through claim_slot and through the reference, comparing each
/// claimed cycle and, after each claim, every slot word. The probed cycle
/// stays put (filling it), steps forward or back, or jumps by whole rings
/// either way, so probes meet slots that name earlier and later cycles.
template <std::size_t N>
ProbeMix expect_claims_match(std::uint64_t width, std::uint64_t seed,
                             int claims) {
  auto ours = std::make_unique<LaneState<N>>();
  auto reference = std::make_unique<LaneState<N>>();
  std::fill_n(&ours->slots[0][0][0], 2 * kLimiterSlots * N, detail::kNoCycle);
  std::fill_n(&reference->slots[0][0][0], 2 * kLimiterSlots * N,
              detail::kNoCycle);
  const std::string context = std::to_string(N) + " lanes, width " +
                              std::to_string(width) + ", seed " +
                              std::to_string(seed);
  Rng rng(seed);
  ProbeMix mix;
  std::uint64_t earliest = 8 * kLimiterSlots;
  int burst = 0;  // claims left at the current cycle
  for (int k = 0; k < claims; ++k) {
    if (burst > 0) {
      --burst;
    } else {
      switch (rng.below(8)) {
        case 0:
        case 1:
          break;  // the same cycle again
        case 2:
          earliest += 1 + rng.below(3);
          break;
        case 3:
          earliest -= std::min(earliest, 1 + rng.below(8));
          break;
        case 4:
          earliest += (1 + rng.below(3)) * kLimiterSlots + rng.below(3);
          break;
        case 5:
          earliest -= std::min(
              earliest, (1 + rng.below(3)) * kLimiterSlots - rng.below(3));
          break;
        case 6:
          burst = static_cast<int>(width + rng.below(3));  // fill, then walk
          break;
        default:
          earliest += rng.below(4 * kLimiterSlots);
          break;
      }
    }
    const std::size_t limiter = rng.below(2);
    const std::size_t lane = rng.below(N);
    const std::uint64_t probed =
        reference->slots[limiter][earliest & (kLimiterSlots - 1)][lane];
    if (probed != detail::kNoCycle) {
      const std::uint64_t named = probed >> detail::kCountBits;
      mix.earlier += named < earliest;
      mix.later += named > earliest;
      mix.full += named == earliest && (probed & detail::kCountMask) == width;
    }

    const std::uint64_t want = two_condition_claim(
        reference->slots, limiter, lane, earliest, width);
    const std::uint64_t got =
        detail::claim_slot(ours->slots, limiter, lane, earliest, width);
    if (got != want) {
      ADD_FAILURE() << context << ", claim " << k << " at " << earliest
                    << ": claimed " << got << ", want " << want;
      return mix;
    }
    if (std::memcmp(ours->slots, reference->slots, sizeof ours->slots) != 0) {
      const std::uint64_t* a = &ours->slots[0][0][0];
      const std::uint64_t* b = &reference->slots[0][0][0];
      const std::size_t w = static_cast<std::size_t>(
          std::mismatch(a, a + 2 * kLimiterSlots * N, b).first - a);
      ADD_FAILURE() << context << ", claim " << k << " at " << earliest
                    << ": slot word " << w << " is " << a[w] << ", want "
                    << b[w];
      return mix;
    }
  }
  return mix;
}

TEST(LimiterClaims, OneCompareProbeMatchesTheTwoConditionProbe) {
  constexpr std::uint64_t kWidths[] = {1, 2, 4, 8, detail::kCountMask};
  ProbeMix total;
  std::uint64_t seed = 1;
  for (const std::uint64_t width : kWidths) {
    for (int run = 0; run < 2; ++run, ++seed) {
      for (const ProbeMix& mix :
           {expect_claims_match<1>(width, seed, 3000),
            expect_claims_match<4>(width, seed, 3000),
            expect_claims_match<8>(width, seed, 3000)}) {
        if (HasFailure()) return;
        total.earlier += mix.earlier;
        total.later += mix.later;
        total.full += mix.full;
      }
    }
  }
  // The sequences reach every kind of slot the probe has to tell apart.
  EXPECT_GT(total.earlier, 1000u);
  EXPECT_GT(total.later, 1000u);
  EXPECT_GT(total.full, 1000u);
}

TEST(ProducerDone, ZeroWithoutATrackedProducer) {
  // A distance of 0 (no producer) would read the instruction's own ring
  // slot, which holds the completion of the instruction kRing before it.
  // The RUU bound (256 < kRing) makes that earlier than dispatch, so no
  // cycle count shows the mask slipping there; this checks it directly.
  using One = detail::OneLane<4, 4>;
  std::uint64_t complete[detail::kRing][1];
  for (std::size_t r = 0; r < detail::kRing; ++r) complete[r][0] = 1000 + r;
  constexpr std::uint32_t kDistances[] = {0, 1, 255, 511, 512, 0xffffffffu};
  for (const std::size_t i : {0u, 1u, 300u, 511u, 512u, 5000u}) {
    for (const std::uint32_t dep : kDistances) {
      const bool tracked = dep != 0 && dep <= i && dep < detail::kRing;
      const std::uint64_t want =
          tracked ? complete[(i - dep) & detail::kRingMask][0] : 0;
      EXPECT_EQ(detail::producer_done<One>(complete, i, dep), want)
          << "instruction " << i << ", distance " << dep;
    }
  }
}

}  // namespace
}  // namespace dsml::sim
