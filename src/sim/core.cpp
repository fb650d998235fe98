#include "sim/core.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "common/metrics.hpp"
#include "common/thread_pool.hpp"

namespace dsml::sim {

namespace {

/// Outcome bits. A level field names where an access was served: 0 = L1,
/// 1 = L2, 2 = L3, 3 = memory. TLB miss bits are per reach slot
/// (FunctionalStats).
namespace outcome {
/// Bits 0–4, the fetch field: this instruction started a new I$ line.
constexpr Outcome kFetch = 1u << 0;
constexpr unsigned kFetchLevelShift = 1;  ///< 2 bits
constexpr unsigned kItlbMissShift = 3;    ///< one bit per slot
/// Bits 5–9, the load field: a load, its D$ level and DTLB miss bits.
/// Stores update the same structures but leave the field 0, because their
/// latency never reaches the timing.
constexpr unsigned kLoadShift = 5;
constexpr Outcome kLoad = 1u << kLoadShift;
constexpr unsigned kLoadLevelShift = 6;  ///< 2 bits
constexpr unsigned kDtlbMissShift = 8;   ///< one bit per slot
constexpr Outcome kMispredict = 1u << 10;
/// A correctly predicted taken branch, which still ends the fetch group.
constexpr Outcome kTakenBranch = 1u << 11;
constexpr unsigned kFieldBits = 5;  ///< fetch and load fields
}  // namespace outcome

// ---------------------------------------------------------------------------
// Functional pass

/// The group's first configuration, after checking that every member is
/// valid and shares its functional key.
const ProcessorConfig& validated_head(std::span<const ProcessorConfig> group) {
  DSML_REQUIRE(!group.empty(), "FunctionalPass: empty configuration group");
  const FunctionalKey key = group.front().functional_key();
  for (const ProcessorConfig& c : group) {
    c.validate();
    DSML_REQUIRE(c.functional_key() == key,
                 "FunctionalPass: configurations differ in functional key");
  }
  return group.front();
}

/// Records `reach_kb` in the first free slot unless already present.
void add_reach(std::array<int, 2>& slots, int reach_kb) {
  for (int& slot : slots) {
    if (slot == reach_kb) return;
    if (slot == 0) {
      slot = reach_kb;
      return;
    }
  }
  throw InvalidArgument("FunctionalPass: more than two TLB reaches in a group");
}

double tlb_miss_rate(const Tlb& tlb) {
  return tlb.accesses() > 0 ? static_cast<double>(tlb.misses()) /
                                  static_cast<double>(tlb.accesses())
                            : 0.0;
}

/// Level field value for "served by memory".
constexpr unsigned kMemoryLevel = 3;

}  // namespace

FunctionalPass::FunctionalPass(std::span<const ProcessorConfig> group)
    : geometry_(validated_head(group)),
      l1d_(static_cast<std::uint64_t>(geometry_.l1d_size_kb) * 1024,
           static_cast<std::uint32_t>(geometry_.l1d_line_b),
           static_cast<std::uint32_t>(geometry_.l1d_assoc)),
      l1i_(static_cast<std::uint64_t>(geometry_.l1i_size_kb) * 1024,
           static_cast<std::uint32_t>(geometry_.l1i_line_b),
           static_cast<std::uint32_t>(geometry_.l1i_assoc)),
      l2_(static_cast<std::uint64_t>(geometry_.l2_size_kb) * 1024,
          static_cast<std::uint32_t>(geometry_.l2_line_b),
          static_cast<std::uint32_t>(geometry_.l2_assoc)),
      l3_(geometry_.has_l3()
              ? static_cast<std::uint64_t>(geometry_.l3_size_mb) * 1024 * 1024
              : 1024 * 1024,  // placeholder geometry; unused when absent
          geometry_.has_l3() ? static_cast<std::uint32_t>(geometry_.l3_line_b)
                             : 256,
          geometry_.has_l3() ? static_cast<std::uint32_t>(geometry_.l3_assoc)
                             : 8),
      predictor_(make_branch_predictor(geometry_.branch_predictor)) {
  for (const ProcessorConfig& c : group) {
    add_reach(itlb_reach_kb_, c.itlb_size_kb);
    add_reach(dtlb_reach_kb_, c.dtlb_size_kb);
  }
  for (const int reach : itlb_reach_kb_) {
    if (reach != 0) itlbs_.emplace_back(static_cast<std::uint64_t>(reach));
  }
  for (const int reach : dtlb_reach_kb_) {
    if (reach != 0) dtlbs_.emplace_back(static_cast<std::uint64_t>(reach));
  }
}

Outcome FunctionalPass::access(std::uint64_t addr, std::vector<Tlb>& tlbs,
                               Cache& l1, unsigned tlb_miss_shift,
                               unsigned level_shift) {
  unsigned bits = 0;
  for (std::size_t s = 0; s < tlbs.size(); ++s) {
    if (!tlbs[s].access(addr)) bits |= 1u << (tlb_miss_shift + s);
  }
  unsigned level = 0;
  if (!l1.access(addr)) {
    level = 1;
    if (!l2_.access(addr)) {
      level = geometry_.has_l3() && l3_.access(addr) ? 2 : kMemoryLevel;
    }
  }
  return static_cast<Outcome>(bits | level << level_shift);
}

FunctionalStats FunctionalPass::run(std::span<const Instr> trace,
                                    std::span<Outcome> outcomes) {
  DSML_REQUIRE(!trace.empty(), "FunctionalPass::run: empty trace");
  DSML_REQUIRE(outcomes.size() == trace.size(),
               "FunctionalPass::run: outcome buffer and trace differ in size");
  static metrics::Counter& passes = metrics::counter("sim.functional_passes");
  passes.add();

  const auto line_b = static_cast<std::uint64_t>(geometry_.l1i_line_b);
  FunctionalStats stats;
  std::uint64_t last_fetch_line = ~0ULL;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Instr& ins = trace[i];
    Outcome o = 0;
    // A new I$ line costs a cache lookup; within a line fetch is free.
    const std::uint64_t line = ins.pc / line_b;
    if (line != last_fetch_line) {
      o |= outcome::kFetch | access(ins.pc, itlbs_, l1i_,
                                    outcome::kItlbMissShift,
                                    outcome::kFetchLevelShift);
      last_fetch_line = line;
    }
    switch (ins.op) {
      case OpClass::kLoad:
        o |= outcome::kLoad | access(ins.mem_addr, dtlbs_, l1d_,
                                     outcome::kDtlbMissShift,
                                     outcome::kLoadLevelShift);
        break;
      case OpClass::kStore:
        // The write drains in the background but updates cache state now.
        access(ins.mem_addr, dtlbs_, l1d_, outcome::kDtlbMissShift,
               outcome::kLoadLevelShift);
        break;
      case OpClass::kBranch: {
        ++stats.branch_count;
        const bool predicted =
            predictor_->predict_and_update(ins.pc, ins.taken);
        if (predicted != ins.taken) {
          ++stats.mispredicts;
          o |= outcome::kMispredict;
          if (geometry_.issue_wrong) {
            // The wrong path touches the instruction cache (possible
            // pollution, possible prefetch) before the machine resumes.
            const std::uint64_t wrong_pc = ins.taken ? ins.pc + 4 : ins.target;
            for (std::uint64_t w = 0; w < 2; ++w) {
              l1i_.access(wrong_pc + w * line_b);
            }
          }
          last_fetch_line = ~0ULL;
        } else if (ins.taken) {
          o |= outcome::kTakenBranch;
          last_fetch_line = ~0ULL;
        }
        break;
      }
      default:
        break;
    }
    outcomes[i] = o;
  }

  stats.l1d_miss_rate = l1d_.miss_rate();
  stats.l1i_miss_rate = l1i_.miss_rate();
  stats.l2_miss_rate = l2_.miss_rate();
  stats.l3_miss_rate = geometry_.has_l3() ? l3_.miss_rate() : 0.0;
  stats.itlb_reach_kb = itlb_reach_kb_;
  stats.dtlb_reach_kb = dtlb_reach_kb_;
  for (std::size_t s = 0; s < itlbs_.size(); ++s) {
    stats.itlb_miss_rate[s] = tlb_miss_rate(itlbs_[s]);
  }
  for (std::size_t s = 0; s < dtlbs_.size(); ++s) {
    stats.dtlb_miss_rate[s] = tlb_miss_rate(dtlbs_[s]);
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Timing pass

namespace {

/// Completion & commit time rings. The window is bounded by the RUU, so a
/// ring a bit larger than the largest RUU (Table 1: 256) suffices; older
/// producers have long completed. Slots not yet written read 0, which is
/// what an absent producer or a not-yet-full window contributes.
constexpr std::size_t kRing = 512;
static_assert((kRing & (kRing - 1)) == 0 && kRing > 256);
constexpr std::size_t kRingMask = kRing - 1;
using Ring = std::array<std::uint64_t, kRing>;

/// Tracks "how many events happened in cycle c" for a bandwidth limit of W
/// per cycle without a full calendar: a ring keyed by cycle number with lazy
/// reset. Each slot packs its cycle and count into one word, and a probe
/// takes one branch, taken unless the cycle is full.
template <std::uint32_t W>
class BandwidthLimiter {
 public:
  /// Earliest cycle >= `earliest` with a free slot; claims the slot.
  std::uint64_t claim(std::uint64_t earliest) {
    for (std::uint64_t c = earliest;; ++c) {
      std::uint64_t& slot = slots_[c & (kSlots - 1)];
      const bool stale = (slot >> kCountBits) != c;
      if (stale | ((slot & kCountMask) < W)) {
        slot = stale ? (c << kCountBits) | 1 : slot + 1;
        return c;
      }
    }
  }

 private:
  static constexpr unsigned kCountBits = 8;
  static constexpr std::uint64_t kCountMask = (1u << kCountBits) - 1;
  static_assert(W <= kCountMask);
  static constexpr std::size_t kSlots = 1024;
  // An all-ones slot names a cycle no claim reaches.
  std::array<std::uint64_t, kSlots> slots_ = filled(~0ULL);

  static constexpr std::array<std::uint64_t, kSlots> filled(std::uint64_t v) {
    std::array<std::uint64_t, kSlots> a{};
    a.fill(v);
    return a;
  }
};

/// The five functional-unit pools (SimpleScalar's res: classes). Each unit
/// is pipelined (initiation interval 1), so contention comes from the unit
/// count and issue bursts. Units are interchangeable, so a pool is the
/// ascending list of its units' free times, padded to U entries with
/// never-free units: the earliest-free unit is the front, and booking it
/// re-sorts the list with one select per entry and no branches.
template <std::size_t U>
class UnitPools {
 public:
  explicit UnitPools(const FunctionalUnitMix& fu) {
    const std::array<int, kPools> counts{fu.ialu, fu.imult, fu.memport,
                                         fu.fpalu, fu.fpmult};
    for (std::size_t p = 0; p < kPools; ++p) {
      for (std::size_t u = 0; u < U; ++u) {
        free_at_[p][u] = u < static_cast<std::size_t>(counts[p])
                             ? 0
                             : std::numeric_limits<std::uint64_t>::max();
      }
    }
  }

  /// Earliest cycle >= `earliest` a unit of `pool` can accept this op;
  /// books the unit.
  std::uint64_t acquire(std::size_t pool, std::uint64_t earliest) {
    std::array<std::uint64_t, U>& units = free_at_[pool];
    const std::uint64_t start = std::max(earliest, units[0]);
    const std::uint64_t busy_until = start + 1;  // busy for one issue slot
    // Drop the front and insert busy_until, keeping the list ascending.
    for (std::size_t u = 0; u + 1 < U; ++u) {
      units[u] = std::min(units[u + 1], std::max(units[u], busy_until));
    }
    units[U - 1] = std::max(units[U - 1], busy_until);
    return start;
  }

 private:
  static constexpr std::size_t kPools = 5;
  std::array<std::array<std::uint64_t, U>, kPools> free_at_{};
};

/// Pool (ialu, imult, memport, fpalu, fpmult) of each OpClass, in
/// declaration order: int ALU, int mult, FP ALU, FP mult, load, store,
/// branch.
constexpr std::array<std::size_t, 7> kPoolOf{0, 1, 3, 4, 2, 2, 0};

/// Everything the kernel needs from the configuration and latency model,
/// with the memory hierarchy folded into lookup tables indexed by an
/// outcome's fetch and load fields.
struct TimingTables {
  std::array<std::uint64_t, 1u << outcome::kFieldBits> fetch_stall{};
  std::array<std::uint64_t, 1u << outcome::kFieldBits> load_latency{};
  std::array<std::uint64_t, 7> op_latency{};
  std::uint64_t decode = 0;
  std::uint64_t mispredict_penalty = 0;
  std::size_t ruu = 0;
  std::size_t lsq = 0;
};

std::size_t reach_slot(const std::array<int, 2>& reaches, int reach_kb) {
  for (std::size_t s = 0; s < reaches.size(); ++s) {
    if (reaches[s] == reach_kb) return s;
  }
  throw InvalidArgument(
      "run_timing_pass: the functional pass did not model this TLB reach");
}

TimingTables timing_tables(const ProcessorConfig& c, const LatencyModel& lat,
                           std::size_t itlb_slot, std::size_t dtlb_slot) {
  const int l1 = c.l1d_size_kb >= 64 ? lat.l1d_hit_large : lat.l1d_hit;
  const int l2 = c.l2_size_kb >= 1024 ? lat.l2_hit_large : lat.l2_hit;
  const int l3 = c.has_l3() ? lat.l3_hit : 0;
  // Latency past the L1 by the level that served the access.
  const std::array<int, 4> beyond_l1{0, l2, l2 + l3, l2 + l3 + lat.memory};

  TimingTables t;
  for (unsigned f = 0; f < t.fetch_stall.size(); ++f) {
    if ((f & outcome::kFetch) == 0) continue;
    int stall = beyond_l1[(f >> outcome::kFetchLevelShift) & 3];
    if ((f >> (outcome::kItlbMissShift + itlb_slot)) & 1) stall += lat.tlb_miss;
    t.fetch_stall[f] = static_cast<std::uint64_t>(stall);
  }
  // The load field, shifted down to bit 0.
  constexpr unsigned kLevel = outcome::kLoadLevelShift - outcome::kLoadShift;
  constexpr unsigned kDtlb = outcome::kDtlbMissShift - outcome::kLoadShift;
  for (unsigned f = 0; f < t.load_latency.size(); ++f) {
    if ((f & 1) == 0) continue;
    int latency = l1 + beyond_l1[(f >> kLevel) & 3];
    if ((f >> (kDtlb + dtlb_slot)) & 1) latency += lat.tlb_miss;
    t.load_latency[f] = static_cast<std::uint64_t>(latency);
  }
  t.op_latency = {static_cast<std::uint64_t>(lat.int_alu),
                  static_cast<std::uint64_t>(lat.int_mult),
                  static_cast<std::uint64_t>(lat.fp_alu),
                  static_cast<std::uint64_t>(lat.fp_mult),
                  static_cast<std::uint64_t>(lat.agen),
                  // Stores retire once the address is generated.
                  static_cast<std::uint64_t>(lat.agen),
                  static_cast<std::uint64_t>(lat.int_alu)};
  t.decode = static_cast<std::uint64_t>(lat.decode_pipeline);
  // Wrong-path issue keeps the front end running: the machine resumes one
  // cycle earlier.
  const int redirect = lat.mispredict_redirect;
  t.mispredict_penalty = static_cast<std::uint64_t>(
      c.issue_wrong ? std::max(redirect - 1, 0) : redirect);
  t.ruu = static_cast<std::size_t>(c.ruu_size);
  t.lsq = static_cast<std::size_t>(c.lsq_size);
  return t;
}

/// Completion time of the producer `dep` instructions before i, or 0 when
/// there is none or it left the ring long ago.
inline std::uint64_t producer_done(const Ring& complete, std::size_t i,
                                   std::uint32_t dep) {
  const bool tracked = (dep != 0) & (dep <= i) & (dep < kRing);
  const std::uint64_t done = complete[(i - dep) & kRingMask];
  return tracked ? done : 0;
}

/// The timing kernel for width W and U-unit pools; returns total cycles.
/// Data-dependent choices are selects rather than branches where the
/// outcome mix makes a branch unpredictable.
template <std::uint32_t W, std::size_t U>
std::uint64_t time_trace(const TimingTables& t, const FunctionalUnitMix& fu,
                         std::span<const Instr> trace,
                         std::span<const Outcome> outcomes) {
  Ring complete_ring{};
  Ring commit_ring{};
  Ring mem_commit_ring{};  // commit cycles of memory ops (LSQ occupancy)
  BandwidthLimiter<W> dispatch_bw;
  BandwidthLimiter<W> issue_bw;
  UnitPools<U> units(fu);

  constexpr unsigned kFieldMask = (1u << outcome::kFieldBits) - 1;
  std::uint64_t fetch_ready = 1;  // cycle the next fetch group can start
  std::uint32_t fetched_in_group = 0;
  // Commit is in order, so its limiter is the last cycle and its count.
  std::uint64_t prev_commit = 0;
  std::uint32_t commits_in_cycle = 0;
  std::size_t mem_ops = 0;

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Instr& ins = trace[i];
    const Outcome o = outcomes[i];
    const auto op = static_cast<std::size_t>(ins.op);

    // ---------------- fetch ----------------
    fetch_ready += t.fetch_stall[o & kFieldMask];
    fetched_in_group = (o & outcome::kFetch) ? 1 : fetched_in_group + 1;
    const bool group_full = fetched_in_group > W;  // next group next cycle
    fetch_ready += group_full;
    fetched_in_group = group_full ? 1 : fetched_in_group;
    const std::uint64_t fetch_time = fetch_ready;

    // ---------------- dispatch ----------------
    const bool is_mem =
        (ins.op == OpClass::kLoad) | (ins.op == OpClass::kStore);
    const std::uint64_t lsq_free =
        mem_commit_ring[(mem_ops - t.lsq) & kRingMask];
    const std::uint64_t window_free =
        std::max(commit_ring[(i - t.ruu) & kRingMask], is_mem ? lsq_free : 0);
    const std::uint64_t dispatch_time =
        dispatch_bw.claim(std::max(fetch_time + t.decode, window_free));

    // ---------------- operand readiness ----------------
    std::uint64_t ready = dispatch_time + 1;
    ready = std::max(ready, producer_done(complete_ring, i, ins.dep1));
    ready = std::max(ready, producer_done(complete_ring, i, ins.dep2));

    // ---------------- issue & execute ----------------
    const std::uint64_t issue_time =
        issue_bw.claim(units.acquire(kPoolOf[op], ready));
    const std::uint64_t complete_time =
        issue_time + t.op_latency[op] +
        t.load_latency[(o >> outcome::kLoadShift) & kFieldMask];

    // ---------------- branch resolution ----------------
    // A mispredict refetches after it resolves; a correctly predicted taken
    // branch still ends the fetch group. Either way the functional pass
    // marked the next instruction as a new fetch line.
    const std::uint64_t redirect = (o & outcome::kMispredict)
                                       ? complete_time + t.mispredict_penalty
                                       : fetch_time + 1;
    const bool redirects =
        (o & (outcome::kMispredict | outcome::kTakenBranch)) != 0;
    fetch_ready = std::max(fetch_ready, redirects ? redirect : 0);

    // ---------------- commit ----------------
    std::uint64_t commit_time = std::max(complete_time + 1, prev_commit);
    const bool same_cycle = commit_time == prev_commit;
    const bool cycle_full = same_cycle & (commits_in_cycle == W);
    commit_time += cycle_full;
    commits_in_cycle = same_cycle & !cycle_full ? commits_in_cycle + 1 : 1;
    prev_commit = commit_time;
    complete_ring[i & kRingMask] = complete_time;
    commit_ring[i & kRingMask] = commit_time;
    // A non-memory op writes the slot the next memory op overwrites.
    mem_commit_ring[mem_ops & kRingMask] = commit_time;
    mem_ops += is_mem;
  }
  return prev_commit;
}

}  // namespace

SimResult run_timing_pass(const ProcessorConfig& config,
                          const LatencyModel& latency,
                          std::span<const Instr> trace,
                          std::span<const Outcome> outcomes,
                          const FunctionalStats& functional) {
  DSML_REQUIRE(!trace.empty(), "run_timing_pass: empty trace");
  DSML_REQUIRE(outcomes.size() == trace.size(),
               "run_timing_pass: outcome buffer and trace differ in size");
  config.validate();
  static metrics::Counter& passes = metrics::counter("sim.timing_passes");
  passes.add();

  const std::size_t itlb_slot =
      reach_slot(functional.itlb_reach_kb, config.itlb_size_kb);
  const std::size_t dtlb_slot =
      reach_slot(functional.dtlb_reach_kb, config.dtlb_size_kb);
  const TimingTables t = timing_tables(config, latency, itlb_slot, dtlb_slot);
  const FunctionalUnitMix& fu = config.fu;
  const bool wide_pools =
      std::max({fu.ialu, fu.imult, fu.memport, fu.fpalu, fu.fpmult}) > 4;
  std::uint64_t cycles = 0;
  if (config.width == 4) {
    cycles = wide_pools ? time_trace<4, 8>(t, fu, trace, outcomes)
                        : time_trace<4, 4>(t, fu, trace, outcomes);
  } else {
    cycles = wide_pools ? time_trace<8, 8>(t, fu, trace, outcomes)
                        : time_trace<8, 4>(t, fu, trace, outcomes);
  }

  const std::size_t n = trace.size();
  SimResult result;
  result.cycles = cycles;
  SimStats& stats = result.stats;
  stats.instructions = n;
  stats.cycles = cycles;
  stats.ipc = cycles > 0 ? static_cast<double>(n) / static_cast<double>(cycles)
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
  stats.itlb_miss_rate = functional.itlb_miss_rate[itlb_slot];
  stats.dtlb_miss_rate = functional.dtlb_miss_rate[dtlb_slot];
  return result;
}

// ---------------------------------------------------------------------------
// One configuration, and the batch

OutOfOrderCore::OutOfOrderCore(const ProcessorConfig& config,
                               const LatencyModel& latency)
    : config_(config),
      lat_(latency),
      functional_(std::span<const ProcessorConfig>(&config_, 1)) {}

SimResult OutOfOrderCore::run(std::span<const Instr> trace) {
  std::vector<Outcome> outcomes(trace.size());
  const FunctionalStats functional = functional_.run(trace, outcomes);
  return run_timing_pass(config_, lat_, trace, outcomes, functional);
}

SimResult simulate(const ProcessorConfig& config, const Trace& trace) {
  OutOfOrderCore core(config);
  return core.run(trace.span());
}

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

}  // namespace

std::vector<SimResult> simulate_batch(ThreadPool& pool,
                                      std::span<const ProcessorConfig> configs,
                                      const Trace& trace) {
  DSML_REQUIRE(!trace.instrs.empty(), "simulate_batch: empty trace");
  std::map<FunctionalKey, std::vector<std::size_t>> by_key;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    by_key[configs[i].functional_key()].push_back(i);
  }
  std::vector<std::vector<std::size_t>> groups;
  groups.reserve(by_key.size());
  for (auto& entry : by_key) groups.push_back(std::move(entry.second));

  std::vector<SimResult> results(configs.size());
  const std::size_t chunk =
      std::max<std::size_t>(1, groups.size() / (pool.size() * 16));
  parallel_for_chunks(
      pool, 0, groups.size(), chunk, [&](std::size_t begin, std::size_t end) {
        std::vector<Outcome> outcomes(trace.size());
        std::vector<ProcessorConfig> members;
        for (std::size_t g = begin; g < end; ++g) {
          const std::vector<std::size_t>& group = groups[g];
          members.clear();
          for (const std::size_t idx : group) members.push_back(configs[idx]);
          FunctionalPass functional(members);
          const FunctionalStats stats = functional.run(trace.span(), outcomes);
          for (std::size_t m = 0; m < members.size(); ++m) {
            std::size_t twin = 0;
            while (twin < m && !same_timing(members[twin], members[m])) {
              ++twin;
            }
            results[group[m]] =
                twin < m ? results[group[twin]]
                         : run_timing_pass(members[m], LatencyModel{},
                                           trace.span(), outcomes, stats);
          }
        }
      });
  return results;
}

std::vector<SimResult> simulate_batch(std::span<const ProcessorConfig> configs,
                                      const Trace& trace) {
  return simulate_batch(ThreadPool::global(), configs, trace);
}

}  // namespace dsml::sim
