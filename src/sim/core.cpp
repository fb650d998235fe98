#include "sim/core.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>

#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "sim/functional_streams.hpp"
#include "sim/timing_kernel.hpp"

namespace dsml::sim {

// ---------------------------------------------------------------------------
// Timing pass

namespace {

namespace outcome = detail::outcome;

using detail::Lane;
using detail::LaneState;
using detail::LaneTables;
using detail::OutcomeStream;

/// Latencies in cycles, the same for every configuration. These mirror
/// common sim-outorder settings for an early-2000s deep pipeline.
struct LatencyModel {
  int decode_pipeline = 3;      ///< fetch→dispatch depth
  int int_alu = 1;
  int int_mult = 3;
  int fp_alu = 2;
  int fp_mult = 4;
  int agen = 1;                 ///< address generation before D$ access
  int l1d_hit = 1;
  int l1d_hit_large = 2;        ///< 64KB L1 pays one extra cycle
  int l2_hit = 12;
  int l2_hit_large = 15;        ///< 1MB L2 pays a little more
  int l3_hit = 40;
  int memory = 170;
  int tlb_miss = 36;
  int mispredict_redirect = 7;  ///< resolve→refetch penalty
};
constexpr LatencyModel kLatency;

std::size_t reach_slot(const std::array<int, 2>& reaches, int reach_kb) {
  for (std::size_t s = 0; s < reaches.size(); ++s) {
    if (reaches[s] == reach_kb) return s;
  }
  throw InvalidArgument(
      "run_timing_pass: the functional pass did not model this TLB reach");
}

/// Where a configuration's TLB reaches sit among a stream's or a group's.
struct ReachSlots {
  std::size_t itlb = 0;
  std::size_t dtlb = 0;
};

ReachSlots reach_slots(const ProcessorConfig& c,
                       const std::array<int, 2>& itlb_reach_kb,
                       const std::array<int, 2>& dtlb_reach_kb) {
  return {reach_slot(itlb_reach_kb, c.itlb_size_kb),
          reach_slot(dtlb_reach_kb, c.dtlb_size_kb)};
}

ReachSlots stream_slots(const ProcessorConfig& c, const OutcomeStream& s) {
  return reach_slots(c, s.itlb_reach_kb, s.dtlb_reach_kb);
}

ReachSlots group_slots(const ProcessorConfig& c, const FunctionalStats& g) {
  return reach_slots(c, g.itlb_reach_kb, g.dtlb_reach_kb);
}

/// Writes configuration `c` into lane `lane` of `t`, reading TLB misses at
/// `slots` of the stream, and the latencies into the entries every lane
/// shares.
template <std::size_t N>
void fill_lane(LaneTables<N>& t, std::size_t lane, const ProcessorConfig& c,
               ReachSlots slots) {
  const int l1 =
      c.l1d_size_kb >= 64 ? kLatency.l1d_hit_large : kLatency.l1d_hit;
  const int l2 =
      c.l2_size_kb >= 1024 ? kLatency.l2_hit_large : kLatency.l2_hit;
  const int l3 = c.has_l3() ? kLatency.l3_hit : 0;
  const int memory = l2 + l3 + kLatency.memory;
  // Latency past the L1 by the level that served the access. Without an L3
  // an L2 miss is memory, and the configuration's own stream never holds
  // level 2; its L3 twin's stream, which simulate_batch times it against,
  // holds level 2 for an L2 miss the L3 served, so that is memory too.
  const std::array<int, 4> beyond_l1{0, l2, c.has_l3() ? l2 + l3 : memory,
                                     memory};

  for (unsigned f = 0; f < detail::kFieldValues; ++f) {
    int stall = 0;
    if (f & outcome::kFetch) {
      stall = beyond_l1[(f >> outcome::kFetchLevelShift) & 3];
      if ((f >> (outcome::kItlbMissShift + slots.itlb)) & 1) {
        stall += kLatency.tlb_miss;
      }
    }
    t.fetch_stall[f][lane] = static_cast<std::uint64_t>(stall);
  }
  // The load field, shifted down to bit 0.
  constexpr unsigned kLevel = outcome::kLoadLevelShift - outcome::kLoadShift;
  constexpr unsigned kDtlb = outcome::kDtlbMissShift - outcome::kLoadShift;
  for (unsigned f = 0; f < detail::kFieldValues; ++f) {
    int latency = 0;
    if (f & 1) {
      latency = l1 + beyond_l1[(f >> kLevel) & 3];
      if ((f >> (kDtlb + slots.dtlb)) & 1) latency += kLatency.tlb_miss;
    }
    t.load_latency[f][lane] = static_cast<std::uint64_t>(latency);
  }
  const std::array<int, detail::kPools> counts{
      c.fu.ialu, c.fu.imult, c.fu.memport, c.fu.fpalu, c.fu.fpmult};
  for (std::size_t p = 0; p < detail::kPools; ++p) {
    for (std::size_t u = 0; u < detail::kMaxUnits; ++u) {
      t.units[p][u][lane] = u < static_cast<std::size_t>(counts[p])
                                ? 0
                                : detail::kNeverFree;
    }
  }
  // Wrong-path issue keeps the front end running: the machine resumes one
  // cycle earlier.
  const int redirect = kLatency.mispredict_redirect;
  t.mispredict_penalty[lane] = static_cast<std::uint64_t>(
      c.issue_wrong ? std::max(redirect - 1, 0) : redirect);
  t.width[lane] = static_cast<std::uint64_t>(c.width);
  t.ruu[lane] = static_cast<std::uint64_t>(c.ruu_size);
  t.lsq[lane] = static_cast<std::uint64_t>(c.lsq_size);

  const std::array<int, detail::kOpClasses> op_latency{
      kLatency.int_alu, kLatency.int_mult, kLatency.fp_alu,
      kLatency.fp_mult, kLatency.agen,
      // Stores retire once the address is generated.
      kLatency.agen, kLatency.int_alu};
  for (std::size_t op = 0; op < op_latency.size(); ++op) {
    t.op_latency[op] = static_cast<std::uint64_t>(op_latency[op]);
  }
  t.decode = static_cast<std::uint64_t>(kLatency.decode_pipeline);
}

/// A configuration's result from its cycle count and its group's
/// counters, read at the configuration's reach `slots` in the group.
SimResult timing_result(std::uint64_t cycles, std::size_t instructions,
                        const FunctionalStats& functional, ReachSlots slots) {
  SimResult result;
  result.cycles = cycles;
  SimStats& stats = result.stats;
  stats.instructions = instructions;
  stats.cycles = cycles;
  stats.ipc = cycles > 0 ? static_cast<double>(instructions) /
                               static_cast<double>(cycles)
                         : 0.0;
  stats.l1d_miss_rate = functional.l1d_miss_rate;
  stats.l1i_miss_rate = functional.l1i_miss_rate;
  stats.l2_miss_rate = functional.l2_miss_rate;
  stats.l3_miss_rate = functional.l3_miss_rate;
  stats.branch_count = functional.branch_count;
  stats.mispredicts = functional.mispredicts;
  stats.branch_mispredict_rate =
      stats.branch_count > 0 ? static_cast<double>(stats.mispredicts) /
                                   static_cast<double>(stats.branch_count)
                             : 0.0;
  stats.itlb_miss_rate = functional.itlb_miss_rate[slots.itlb];
  stats.dtlb_miss_rate = functional.dtlb_miss_rate[slots.dtlb];
  return result;
}

void require_outcomes(std::span<const Instr> trace,
                      std::span<const Outcome> outcomes) {
  DSML_REQUIRE(!trace.empty(), "run_timing_pass: empty trace");
  DSML_REQUIRE(outcomes.size() == trace.size(),
               "run_timing_pass: outcome buffer and trace differ in size");
}

/// The one-lane kernel for width W and U-unit pools. Campaign shards time
/// every configuration here, and its speed moved by a few percent with where
/// the linker happened to place it, so each instantiation starts on a
/// 64-byte boundary.
template <std::uint32_t W, std::size_t U>
[[gnu::aligned(64)]] std::uint64_t time_one_lane(
    const LaneTables<1>& t, std::span<const Instr> trace,
    std::span<const Outcome> outcomes) {
  LaneState<1> state{};
  std::uint64_t cycles = 0;
  detail::time_lanes<detail::OneLane<W, U>>(t, state, trace.data(),
                                            outcomes.data(), trace.size(),
                                            &cycles);
  return cycles;
}

/// Times one lane against `stream` through the one-lane kernel.
SimResult time_one(const Lane& lane, std::span<const Instr> trace,
                   const OutcomeStream& stream) {
  const ProcessorConfig& config = lane.config;
  require_outcomes(trace, stream.outcomes);
  config.validate();
  static metrics::Counter& passes = metrics::counter("sim.timing_passes");
  passes.add();

  const ReachSlots in_group = group_slots(config, *lane.group);
  LaneTables<1> t{};
  fill_lane(t, 0, config, stream_slots(config, stream));
  const FunctionalUnitMix& fu = config.fu;
  const bool wide_pools =
      std::max({fu.ialu, fu.imult, fu.memport, fu.fpalu, fu.fpmult}) > 4;
  const std::span<const Outcome> outcomes = stream.outcomes;
  std::uint64_t cycles = 0;
  if (config.width == 4) {
    cycles = wide_pools ? time_one_lane<4, 8>(t, trace, outcomes)
                        : time_one_lane<4, 4>(t, trace, outcomes);
  } else {
    cycles = wide_pools ? time_one_lane<8, 8>(t, trace, outcomes)
                        : time_one_lane<8, 4>(t, trace, outcomes);
  }
  return timing_result(cycles, trace.size(), *lane.group, in_group);
}

// The vector kernels this build carries (src/sim/CMakeLists.txt compiles a
// lane TU when the compiler takes its flag).
#if defined(DSML_SIM_HAVE_AVX2)
constexpr bool kHaveFourLanes = true;
#else
constexpr bool kHaveFourLanes = false;
#endif
#if defined(DSML_SIM_HAVE_AVX512)
constexpr bool kHaveEightLanes = true;
#else
constexpr bool kHaveEightLanes = false;
#endif

}  // namespace

SimResult run_timing_pass(const ProcessorConfig& config,
                          std::span<const Instr> trace,
                          std::span<const Outcome> outcomes,
                          const FunctionalStats& functional) {
  return time_one({config, &functional}, trace,
                  {outcomes, functional.itlb_reach_kb,
                   functional.dtlb_reach_kb});
}

bool detail::lanes_supported(std::size_t n) noexcept {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  // cpuid never changes while the process runs, so detect once. AVX-512F
  // is all the eight-lane TU is compiled for, and GCC's check includes the
  // OS saving the 512-bit state.
  static const bool four = kHaveFourLanes && __builtin_cpu_supports("avx2");
  static const bool eight =
      kHaveEightLanes && __builtin_cpu_supports("avx512f");
  return (n == 4 && four) || (n == 8 && eight);
#else
  return false;
#endif
}

std::size_t detail::lane_width() noexcept {
  return lanes_supported(8) ? 8 : lanes_supported(4) ? 4 : 1;
}

template <std::size_t N>
void detail::run_timing_lanes(std::span<const Lane> lanes,
                              std::span<const Instr> trace,
                              const OutcomeStream& stream,
                              LaneState<N>& state,
                              std::span<SimResult> results) {
  require_outcomes(trace, stream.outcomes);
  DSML_REQUIRE(!lanes.empty() && lanes.size() <= N,
               "run_timing_lanes: expected 1 to " + std::to_string(N) +
                   " configurations");
  DSML_REQUIRE(results.size() == lanes.size(),
               "run_timing_lanes: results and configurations differ in size");
  if (!lanes_supported(N)) {
    throw StateError("run_timing_lanes: no " + std::to_string(N) +
                     "-lane kernel on this host");
  }
  static metrics::Counter& passes = metrics::counter("sim.timing_passes");
  static metrics::Counter& lane_passes = metrics::counter("sim.lane_passes");

  std::array<ReachSlots, N> in_stream{};
  std::array<ReachSlots, N> in_group{};
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    lanes[l].config.validate();
    in_stream[l] = stream_slots(lanes[l].config, stream);
    in_group[l] = group_slots(lanes[l].config, *lanes[l].group);
  }
  // Lanes past the last configuration repeat it; their cycles are dropped.
  LaneTables<N> t{};
  for (std::size_t l = 0; l < N; ++l) {
    const std::size_t c = std::min(l, lanes.size() - 1);
    fill_lane(t, l, lanes[c].config, in_stream[c]);
  }
  std::uint64_t cycles[N] = {};
  // Only the kernels this build carries are named; lanes_supported(N) is
  // false for the others, so they never get here.
  if constexpr ((N == 4 && kHaveFourLanes) || (N == 8 && kHaveEightLanes)) {
    time_vector_lanes(t, state, trace.data(), stream.outcomes.data(),
                      trace.size(), cycles);
  }
  lane_passes.add();
  passes.add(lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    results[l] =
        timing_result(cycles[l], trace.size(), *lanes[l].group, in_group[l]);
  }
}

template void detail::run_timing_lanes<4>(std::span<const Lane>,
                                          std::span<const Instr>,
                                          const OutcomeStream&,
                                          LaneState<4>&,
                                          std::span<SimResult>);
template void detail::run_timing_lanes<8>(std::span<const Lane>,
                                          std::span<const Instr>,
                                          const OutcomeStream&,
                                          LaneState<8>&,
                                          std::span<SimResult>);

// ---------------------------------------------------------------------------
// The batch, and one configuration

namespace {

/// Members of one functional group the timing pass cannot tell apart:
/// equal configurations, or perfect-predictor issue_wrong twins (the pass
/// reads issue_wrong only on a mispredict).
bool same_timing(ProcessorConfig a, const ProcessorConfig& b) {
  if (a.branch_predictor == BranchPredictorKind::kPerfect) {
    a.issue_wrong = b.issue_wrong;
  }
  return a == b;
}

/// Fewest distinct timings a vector pass takes. On the CLI's mcf trace a
/// four-lane pass costs about 1.9 to 2.6 one-lane passes, and an eight-lane
/// pass about 2.2 to 2.9, however many of their lanes are in use
/// (docs/PERFORMANCE.md), so three or more timings gain and one or two do
/// not.
constexpr std::size_t kMinLanes = 3;

/// One worker's share of simulate_batch's timing: it times whole units,
/// every configuration of an L2 key against the unit's one stream, and owns
/// the lane state once a unit needs it.
class UnitTimer {
 public:
  UnitTimer(std::span<const ProcessorConfig> configs, const Trace& trace,
            std::size_t width, std::span<SimResult> results)
      : configs_(configs), trace_(trace), width_(width), results_(results) {}

  void time(const OutcomeStream& stream,
            std::span<const detail::UnitWalker::GroupView> groups) {
    // The unit's distinct timings, group by group in member order; a twin
    // takes the result of the first member of its group it cannot be told
    // apart from.
    distinct_.clear();
    timing_of_.clear();
    for (const detail::UnitWalker::GroupView& g : groups) {
      const std::size_t first = distinct_.size();
      for (const std::size_t idx : g.members) {
        const ProcessorConfig& c = configs_[idx];
        std::size_t d = first;
        while (d < distinct_.size() && !same_timing(distinct_[d].config, c)) {
          ++d;
        }
        if (d == distinct_.size()) distinct_.push_back({c, &g.stats});
        timing_of_.push_back(d);
      }
    }

    timed_.resize(distinct_.size());
    std::size_t next = 0;
    if (width_ == 8) next = time_vector<8>(stream);
    if (width_ == 4) next = time_vector<4>(stream);
    for (; next < distinct_.size(); ++next) {
      timed_[next] = time_one(distinct_[next], trace_.span(), stream);
    }
    std::size_t m = 0;
    for (const detail::UnitWalker::GroupView& g : groups) {
      for (const std::size_t idx : g.members) {
        results_[idx] = timed_[timing_of_[m++]];
      }
    }
  }

 private:
  /// N-lane passes while at least kMinLanes distinct timings remain;
  /// returns how many it timed.
  template <std::size_t N>
  std::size_t time_vector(const OutcomeStream& stream) {
    std::size_t next = 0;
    while (distinct_.size() - next >= kMinLanes) {
      const std::size_t count = std::min(N, distinct_.size() - next);
      detail::run_timing_lanes<N>(std::span(distinct_).subspan(next, count),
                                  trace_.span(), stream, lane_state<N>(),
                                  std::span(timed_).subspan(next, count));
      next += count;
    }
    return next;
  }

  /// The worker's N-lane state (227 KB at eight lanes), mapped from the OS
  /// on first use as MappedWords maps a batch's streams, and unmapped with
  /// the timer. Held on the heap, the states stayed resident after the
  /// batch, beneath the next sweep's trace, and raised peak RSS.
  template <std::size_t N>
  LaneState<N>& lane_state() {
    if (!lane_words_) {
      lane_words_.emplace(sizeof(LaneState<N>) / sizeof(std::uint64_t));
      lane_state_ = std::construct_at(
          reinterpret_cast<LaneState<N>*>(lane_words_->words().data()));
    }
    return *static_cast<LaneState<N>*>(lane_state_);
  }

  std::span<const ProcessorConfig> configs_;
  const Trace& trace_;
  std::size_t width_;  ///< lane_width(), fixed for the batch
  std::span<SimResult> results_;
  std::optional<detail::MappedWords> lane_words_;
  void* lane_state_ = nullptr;          ///< a LaneState<width_> in lane_words_
  std::vector<Lane> distinct_;          ///< with each timing's group counters
  std::vector<std::size_t> timing_of_;  ///< per member, its distinct_ index
  std::vector<SimResult> timed_;        ///< per distinct timing
};

}  // namespace

std::vector<SimResult> simulate_batch(ThreadPool& pool,
                                      std::span<const ProcessorConfig> configs,
                                      const Trace& trace) {
  DSML_REQUIRE(!trace.instrs.empty(), "simulate_batch: empty trace");
  static metrics::Counter& instructions = metrics::counter("sim.instructions");
  static metrics::Gauge& lane_width = metrics::gauge("sim.lane_width");
  trace::Span batch_span("sim.simulate_batch", "sim");
  const detail::FunctionalStreams streams = [&] {
    trace::Span streams_span("sim.functional_streams", "sim");
    return detail::FunctionalStreams(pool, configs, trace.span());
  }();
  const std::size_t width = detail::lane_width();
  lane_width.set(static_cast<double>(width));

  // Each worker claims one unit (L2 key) at a time, so a worker's caches
  // and buffers serve every unit it walks.
  std::vector<SimResult> results(configs.size());
  std::atomic<std::size_t> next_unit{0};
  parallel_for(
      pool, 0, std::min(pool.size(), streams.units()),
      [&](std::size_t) {
        detail::UnitWalker walker(streams);
        UnitTimer timer(configs, trace, width, results);
        const detail::UnitWalker::Visit time_unit =
            [&timer](const OutcomeStream& stream,
                     std::span<const detail::UnitWalker::GroupView> groups) {
              timer.time(stream, groups);
            };
        for (std::size_t u = next_unit.fetch_add(1); u < streams.units();
             u = next_unit.fetch_add(1)) {
          walker.walk(u, time_unit);
        }
      },
      /*grain=*/1);
  instructions.add(trace.size() * configs.size());
  return results;
}

std::vector<SimResult> simulate_batch(std::span<const ProcessorConfig> configs,
                                      const Trace& trace) {
  return simulate_batch(ThreadPool::global(), configs, trace);
}

SimResult simulate(const ProcessorConfig& config, const Trace& trace) {
  return simulate_batch(ThreadPool::global(), {&config, 1}, trace).front();
}

}  // namespace dsml::sim
