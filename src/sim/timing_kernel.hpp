// The timing kernel, written once over lanes. Private to src/sim (core.cpp,
// timing_avx2.cpp, timing_avx512.cpp) and the tests that compare its
// instantiations.
//
// A lane is one configuration. time_lanes<L> walks a trace and the outcomes
// a functional pass recorded once, advancing every lane's fetch, dispatch,
// issue and commit state; the lane policy L supplies the per-lane values and
// arithmetic:
//
//   OneLane<W, U>     (below)  one std::uint64_t per value, width W and pool
//                              size U as constants. run_timing_pass, an L2
//                              key's last one or two timings, and every
//                              host without AVX2 run this.
//   VectorLanes<N>    (below)  one 64-bit lane of a vector per
//                              configuration: N = 4 in timing_avx2.cpp
//                              (-mavx2, 256 bits), N = 8 in
//                              timing_avx512.cpp (-mavx512f, 512 bits).
//                              cpuid picks the widest the host runs.
//
// Per-lane arrays are interleaved by lane, [entry][lane], so an index every
// lane shares (an outcome's fetch or load field, a dependency distance, the
// current instruction's ring slot, an FU pool) is one vector load. Pools are
// padded to kMaxUnits units with kNeverFree, which stays below 2^63 so that
// signed 64-bit vector compares order it last. Choices that follow an
// outcome bit or a dependency distance are masks, not branches. Three steps
// stay lane by lane: the RUU and LSQ look-back (the lanes' window sizes
// differ, so their ring slots do), and a limiter claim's slot loads and
// stores. The claim itself tests every lane's slot in one vector compare,
// and walks lane by lane only when a cycle is full.
//
// The lanes of one pass need not share a functional group. An L2 key's
// L3-absent configurations read the L3-present group's stream: the L2 sees
// the same accesses either way, and their tables price level 2 (an L3 hit)
// as memory, which is what their own stream records there. Each lane reads
// its TLB miss bits at its reaches' slots in the stream (OutcomeStream).
//
// Everything after the declarations has internal linkage, so each lane TU
// and the baseline TU compile their own copy of every function they use,
// and the linker can never hand a baseline caller a vector body. For the
// same reason the kernel calls no standard-library template.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "sim/core.hpp"

namespace dsml::sim::detail {

/// Outcome bits. A level field names where an access was served: 0 = L1,
/// 1 = L2, 2 = L3, 3 = memory; without an L3 an L2 miss is memory, so a
/// group without one never records level 2. TLB miss bits are per reach
/// slot (OutcomeStream).
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
constexpr unsigned kFieldMask = (1u << kFieldBits) - 1;
}  // namespace outcome

/// Completion and commit time rings. The window is bounded by the RUU, so a
/// ring a bit larger than the largest RUU (Table 1: 256) suffices; older
/// producers have long completed. Slots not yet written read 0, which is
/// what an absent producer or a not-yet-full window contributes.
constexpr std::size_t kRing = 512;
static_assert((kRing & (kRing - 1)) == 0 && kRing > 256);
constexpr std::size_t kRingMask = kRing - 1;

/// Limiter slots per lane; see claim_slot().
constexpr std::size_t kLimiterSlots = 1024;

/// The five functional-unit pools (SimpleScalar's res: classes), each
/// padded to kMaxUnits units with never-free ones.
constexpr std::size_t kPools = 5;
constexpr std::size_t kMaxUnits = 8;
constexpr std::uint64_t kNeverFree = std::uint64_t{1} << 62;

constexpr std::size_t kOpClasses = 7;
constexpr std::size_t kFieldValues = std::size_t{1} << outcome::kFieldBits;

/// Everything the kernel needs from N configurations and the latency table,
/// with the memory hierarchy folded into lookup tables indexed by an
/// outcome's fetch and load fields. Per-lane entries are [entry][lane].
template <std::size_t N>
struct LaneTables {
  /// A row of N lanes, aligned to its own size so a vector load never
  /// splits a cache line. One lane needs no more than a word's alignment,
  /// which keeps the one-lane kernel's frame free of stack realignment.
  static constexpr std::size_t kRowAlign = N * sizeof(std::uint64_t);

  alignas(kRowAlign) std::uint64_t fetch_stall[kFieldValues][N];
  alignas(kRowAlign) std::uint64_t load_latency[kFieldValues][N];
  /// Each pool's units at the start of a pass: 0 for a real unit,
  /// kNeverFree for padding.
  alignas(kRowAlign) std::uint64_t units[kPools][kMaxUnits][N];
  alignas(kRowAlign) std::uint64_t mispredict_penalty[N];
  alignas(kRowAlign) std::uint64_t width[N];
  std::uint64_t ruu[N];
  std::uint64_t lsq[N];
  std::uint64_t op_latency[kOpClasses];  ///< shared by every lane
  std::uint64_t decode;                  ///< shared by every lane
};

/// The kernel's working state for N lanes, reset at the start of each pass.
template <std::size_t N>
struct LaneState {
  static constexpr std::size_t kRowAlign = LaneTables<N>::kRowAlign;

  alignas(kRowAlign) std::uint64_t complete[kRing][N];
  alignas(kRowAlign) std::uint64_t commit[kRing][N];
  /// Commit cycles of memory ops (LSQ occupancy).
  alignas(kRowAlign) std::uint64_t mem_commit[kRing][N];
  alignas(kRowAlign) std::uint64_t units[kPools][kMaxUnits][N];
  /// The dispatch and issue limiters' slots (see claim_slot),
  /// [limiter][cycle][lane]: limiter-major, so in the one-lane kernel each
  /// limiter sits at a fixed offset in the frame and needs no register.
  std::uint64_t slots[2][kLimiterSlots][N];
};

/// An outcome stream and the TLB reaches its miss bits stand for: bit slot
/// s of the fetch (load) field is a miss at ITLB (DTLB) reach
/// itlb_reach_kb[s] (dtlb_reach_kb[s]); 0 marks an unused slot. A group
/// numbers its reaches in member order (FunctionalStats); simulate_batch's
/// streams use the batch's order.
struct OutcomeStream {
  std::span<const Outcome> outcomes;
  std::array<int, 2> itlb_reach_kb{};
  std::array<int, 2> dtlb_reach_kb{};
};

/// One configuration of a vector pass, and the counters of its functional
/// group, which its result reports at the group's own reach slots.
struct Lane {
  ProcessorConfig config;
  const FunctionalStats* group = nullptr;
};

/// Whether this build carries the n-lane kernel and the CPU runs it: n = 4
/// needs AVX2, n = 8 AVX-512F. False for any other n.
bool lanes_supported(std::size_t n) noexcept;

/// The widest kernel the host runs: 8, 4, or 1 when it runs neither vector
/// kernel.
std::size_t lane_width() noexcept;

/// Times `lanes`, one to N configurations, in one pass of the N-lane kernel
/// against `stream`; writes each lane's result to the same index of
/// `results`. A configuration may repeat, and lanes may come from different
/// groups of one L2 key. Results are bit-identical to run_timing_pass on
/// each lane's own group stream. Counts one sim.lane_passes and
/// lanes.size() sim.timing_passes. Throws InvalidArgument as
/// run_timing_pass does, or when the stream or a lane's group did not model
/// the lane's TLB reaches, and StateError when lanes_supported(N) is false.
/// Instantiated for N = 4 and 8.
template <std::size_t N>
void run_timing_lanes(std::span<const Lane> lanes,
                      std::span<const Instr> trace,
                      const OutcomeStream& stream, LaneState<N>& state,
                      std::span<SimResult> results);

/// The vector kernels, one per lane TU (timing_avx2.cpp and
/// timing_avx512.cpp): write each lane's total cycles to cycles[0..N). Call
/// only when lanes_supported(N).
void time_vector_lanes(const LaneTables<4>& tables, LaneState<4>& state,
                       const Instr* trace, const Outcome* outcomes,
                       std::size_t n, std::uint64_t* cycles);
void time_vector_lanes(const LaneTables<8>& tables, LaneState<8>& state,
                       const Instr* trace, const Outcome* outcomes,
                       std::size_t n, std::uint64_t* cycles);

namespace {

/// Pool (ialu, imult, memport, fpalu, fpmult) of each OpClass, in
/// declaration order: int ALU, int mult, FP ALU, FP mult, load, store,
/// branch.
constexpr std::size_t kPoolOf[kOpClasses] = {0, 1, 3, 4, 2, 2, 0};

/// The two bandwidth limiters.
constexpr std::size_t kDispatch = 0;
constexpr std::size_t kIssue = 1;

/// A limiter slot packs a cycle number and the count claimed in it.
constexpr unsigned kCountBits = 8;
constexpr std::uint64_t kCountMask = (std::uint64_t{1} << kCountBits) - 1;
/// An all-ones slot names a cycle no claim reaches.
constexpr std::uint64_t kNoCycle = ~std::uint64_t{0};

/// All ones when `cond` holds, else 0, so `v & L::splat(all_ones_if(c))`
/// keeps v or zeroes it without a branch.
constexpr std::uint64_t all_ones_if(bool cond) {
  return 0 - std::uint64_t{cond};
}

/// A bandwidth limit of `width` events per cycle without a full calendar:
/// the slots of `limiter` and `lane` are a ring keyed by cycle number with
/// lazy reset. Returns the earliest cycle >= `earliest` with a free slot and
/// claims the slot.
///
/// A slot word that names cycle c holds the count claimed in c; a word that
/// names an earlier or a later cycle is free for c and restarts at a count
/// of 1. So the probe is one compare: the only full word for c is
/// (c << kCountBits) | width. That rests on three invariants: a current
/// slot's count stays in 1..width, width is in 1..kCountMask, and cycles
/// stay below 2^56 - 1, so the shift keeps every bit and no cycle's full
/// word is kNoCycle. The old probe, `stale | (count < width)`, tested two
/// conditions, and GCC 12 split the `|` into two branches that followed
/// the simulated machine's state.
template <std::size_t N>
std::uint64_t claim_slot(std::uint64_t (*slots)[kLimiterSlots][N],
                         std::size_t limiter, std::size_t lane,
                         std::uint64_t earliest, std::uint64_t width) {
  for (std::uint64_t c = earliest;; ++c) {
    std::uint64_t& slot = slots[limiter][c & (kLimiterSlots - 1)][lane];
    if (slot != ((c << kCountBits) | width)) {
      slot = (slot >> kCountBits) == c ? slot + 1 : (c << kCountBits) | 1;
      return c;
    }
  }
}

/// One configuration per pass: every value is a std::uint64_t, and the
/// width W and pool size U are constants.
template <std::uint32_t W, std::size_t U>
struct OneLane {
  static_assert(W <= kCountMask && U <= kMaxUnits);
  static constexpr std::size_t kLanes = 1;
  static constexpr std::size_t kUnits = U;
  using V = std::uint64_t;
  using M = bool;  ///< a per-lane condition

  static V splat(std::uint64_t x) { return x; }
  static V load(const std::uint64_t* p) { return *p; }
  static void store(std::uint64_t* p, V v) { *p = v; }
  static V max(V a, V b) { return a < b ? b : a; }
  static V min(V a, V b) { return b < a ? b : a; }
  static M eq(V a, V b) { return a == b; }
  static M gt(V a, V b) { return a > b; }
  static M both(M a, M b) { return a & b; }
  static M and_not(M a, M b) { return a & !b; }
  static V select(M m, V a, V b) { return m ? a : b; }
  static V one_if(M m) { return m; }
  static V width(const LaneTables<1>&) { return W; }

  /// ring[pos - back] for this lane's look-back distance.
  static V look_back(const std::uint64_t (*ring)[1], std::size_t pos,
                     const std::uint64_t* back) {
    return ring[(pos - back[0]) & kRingMask][0];
  }

  static V claim(std::uint64_t (*slots)[kLimiterSlots][1],
                 std::size_t limiter, V earliest, const LaneTables<1>&) {
    return claim_slot(slots, limiter, 0, earliest, W);
  }
};

#if defined(__AVX2__)
/// N 64-bit lanes as one vector of the compiler's vector extensions, which
/// lower to AVX2 or AVX-512 integer ops. GCC 12 drops a vector_size that
/// depends on a template parameter, so each width is spelled out.
template <std::size_t N>
struct Int64s;
template <>
struct Int64s<2> {
  typedef std::int64_t V __attribute__((vector_size(16)));
};
template <>
struct Int64s<4> {
  typedef std::int64_t V __attribute__((vector_size(32)));
};
template <>
struct Int64s<8> {
  typedef std::int64_t V __attribute__((vector_size(64)));
};

/// Whether no lane of `m` holds: the upper half OR-ed into the lower until
/// two lanes remain, then their OR and one branch. OR-ing the lanes one by
/// one costs an extract per lane.
template <std::size_t N>
bool none_set(typename Int64s<N>::V m);

template <std::size_t N, std::size_t... I>
bool none_set_halves(typename Int64s<N>::V m, std::index_sequence<I...>) {
  return none_set<N / 2>(__builtin_shufflevector(m, m, I...) |
                         __builtin_shufflevector(m, m, (N / 2 + I)...));
}

template <std::size_t N>
bool none_set(typename Int64s<N>::V m) {
  if constexpr (N == 2) {
    return (m[0] | m[1]) == 0;
  } else {
    return none_set_halves<N>(m, std::make_index_sequence<N / 2>{});
  }
}

/// One configuration per 64-bit lane of an N-lane vector. Min and max are
/// signed (AVX2 has none for 64 bits, so there they are a compare and a
/// blend): every value the kernel compares stays below 2^63.
template <std::size_t N>
struct VectorLanes {
  static constexpr std::size_t kLanes = N;
  static constexpr std::size_t kUnits = kMaxUnits;
  using V = typename Int64s<N>::V;
  using M = V;  ///< all ones in a lane where the condition holds
  using Lanes = std::make_index_sequence<N>;

  static V splat(std::uint64_t x) { return V{} + lane(x); }
  static V load(const std::uint64_t* p) {
    V v{};
    __builtin_memcpy(&v, p, sizeof v);
    return v;
  }
  static void store(std::uint64_t* p, V v) {
    __builtin_memcpy(p, &v, sizeof v);
  }
  static V max(V a, V b) { return a > b ? a : b; }
  static V min(V a, V b) { return a > b ? b : a; }
  static M eq(V a, V b) { return a == b; }
  static M gt(V a, V b) { return a > b; }
  static M both(M a, M b) { return a & b; }
  static M and_not(M a, M b) { return a & ~b; }
  static V select(M m, V a, V b) { return m ? a : b; }
  static V one_if(M m) { return m & 1; }
  static V width(const LaneTables<N>& t) { return load(t.width); }

  static V look_back(const std::uint64_t (*ring)[N], std::size_t pos,
                     const std::uint64_t* back) {
    return look_back(ring, pos, back, Lanes{});
  }

  /// claim_slot on every lane, with the same cycles and slot words. The
  /// lanes' slots at `earliest` are tested for a full cycle in one vector
  /// compare. When none is full, the common case, each lane claims its slot
  /// at `earliest`, so the claimed cycles never leave the register; the
  /// mask compare is claim_slot's `(slot >> kCountBits) == c` without a
  /// shift of signed lanes. Otherwise every lane walks in claim_slot.
  static V claim(std::uint64_t (*slots)[kLimiterSlots][N],
                 std::size_t limiter, V earliest, const LaneTables<N>& t) {
    return claim(slots, limiter, earliest, t, Lanes{});
  }

 private:
  template <std::size_t... I>
  static V look_back(const std::uint64_t (*ring)[N], std::size_t pos,
                     const std::uint64_t* back, std::index_sequence<I...>) {
    return V{lane(ring[(pos - back[I]) & kRingMask][I])...};
  }

  template <std::size_t... I>
  static V claim(std::uint64_t (*slots)[kLimiterSlots][N],
                 std::size_t limiter, V earliest, const LaneTables<N>& t,
                 std::index_sequence<I...>) {
    std::uint64_t(*const ring)[N] = slots[limiter];
    const V at = earliest & splat(kLimiterSlots - 1);
    const V slot{lane(ring[cycle(at[I])][I])...};
    const V named = earliest << kCountBits;
    if (none_set<N>(slot == (named | load(t.width)))) [[likely]] {
      const V next =
          select((slot & splat(~kCountMask)) == named, slot + 1, named | 1);
      ((ring[cycle(at[I])][I] = cycle(next[I])), ...);
      return earliest;
    }
    return V{lane(
        claim_slot(slots, limiter, I, cycle(earliest[I]), t.width[I]))...};
  }

  static std::int64_t lane(std::uint64_t x) {
    return static_cast<std::int64_t>(x);
  }
  static std::uint64_t cycle(std::int64_t x) {
    return static_cast<std::uint64_t>(x);
  }
};
#endif  // __AVX2__

/// Earliest cycle >= `earliest` a unit of the pool `units` can accept this
/// op; books the unit. Each unit is pipelined (initiation interval 1), so
/// contention comes from the unit count and issue bursts. Units are
/// interchangeable, so a pool is the ascending list of its units' free
/// times: the earliest-free unit is the front, and booking it re-sorts the
/// list with one min(max()) per entry and no branches.
template <class L>
typename L::V acquire(std::uint64_t (*units)[L::kLanes],
                      typename L::V earliest) {
  using V = typename L::V;
  const V start = L::max(earliest, L::load(units[0]));
  const V busy_until = start + L::splat(1);  // busy for one issue slot
  // Drop the front and insert busy_until, keeping the list ascending.
  for (std::size_t u = 0; u + 1 < L::kUnits; ++u) {
    L::store(units[u], L::min(L::load(units[u + 1]),
                              L::max(L::load(units[u]), busy_until)));
  }
  L::store(units[L::kUnits - 1],
           L::max(L::load(units[L::kUnits - 1]), busy_until));
  return start;
}

/// Completion time of the producer `dep` instructions before i, or 0 when
/// there is none or it left the ring long ago.
template <class L>
typename L::V producer_done(const std::uint64_t (*complete)[L::kLanes],
                            std::size_t i, std::uint32_t dep) {
  const bool tracked = (dep != 0) & (dep <= i) & (dep < kRing);
  return L::load(complete[(i - dep) & kRingMask]) &
         L::splat(all_ones_if(tracked));
}

template <std::size_t N>
void reset(LaneState<N>& s, const LaneTables<N>& t) {
  for (std::size_t r = 0; r < kRing; ++r) {
    for (std::size_t l = 0; l < N; ++l) {
      s.complete[r][l] = 0;
      s.commit[r][l] = 0;
      s.mem_commit[r][l] = 0;
    }
  }
  for (std::size_t p = 0; p < kPools; ++p) {
    for (std::size_t u = 0; u < kMaxUnits; ++u) {
      for (std::size_t l = 0; l < N; ++l) s.units[p][u][l] = t.units[p][u][l];
    }
  }
  for (std::size_t c = 0; c < kLimiterSlots; ++c) {
    for (std::size_t l = 0; l < N; ++l) {
      s.slots[kDispatch][c][l] = kNoCycle;
      s.slots[kIssue][c][l] = kNoCycle;
    }
  }
}

/// The timing kernel: runs `n` instructions of `trace` against their
/// `outcomes` for every lane of L and writes each lane's total cycles to
/// `cycles`. Choices that follow an outcome or a dependency distance are
/// masks and selects, not branches: the outcome mix makes a branch
/// unpredictable.
template <class L>
void time_lanes(const LaneTables<L::kLanes>& t, LaneState<L::kLanes>& s,
                const Instr* trace, const Outcome* outcomes, std::size_t n,
                std::uint64_t* cycles) {
  using V = typename L::V;
  using M = typename L::M;
  reset(s, t);

  const V zero = L::splat(0);
  const V one = L::splat(1);
  const V width = L::width(t);
  V fetch_ready = one;  // cycle the next fetch group can start
  V fetched_in_group = zero;
  // Commit is in order, so its limiter is the last cycle and its count.
  V prev_commit = zero;
  V commits_in_cycle = zero;
  std::size_t mem_ops = 0;

  for (std::size_t i = 0; i < n; ++i) {
    const Instr& ins = trace[i];
    const Outcome o = outcomes[i];
    const auto op = static_cast<std::size_t>(ins.op);

    // ---------------- fetch ----------------
    fetch_ready = fetch_ready + L::load(t.fetch_stall[o & outcome::kFieldMask]);
    // A new I$ line starts a group; otherwise the group goes on.
    fetched_in_group =
        (fetched_in_group &
         L::splat(all_ones_if((o & outcome::kFetch) == 0))) +
        one;
    const M group_full = L::gt(fetched_in_group, width);  // next cycle
    fetch_ready = fetch_ready + L::one_if(group_full);
    fetched_in_group = L::select(group_full, one, fetched_in_group);
    const V fetch_time = fetch_ready;

    // ---------------- dispatch ----------------
    const bool is_mem =
        (ins.op == OpClass::kLoad) | (ins.op == OpClass::kStore);
    const V lsq_free = L::look_back(s.mem_commit, mem_ops, t.lsq);
    const V window_free = L::max(L::look_back(s.commit, i, t.ruu),
                                 lsq_free & L::splat(all_ones_if(is_mem)));
    const V dispatch_time =
        L::claim(s.slots, kDispatch,
                 L::max(fetch_time + L::splat(t.decode), window_free), t);

    // ---------------- operand readiness ----------------
    V ready = dispatch_time + one;
    ready = L::max(ready, producer_done<L>(s.complete, i, ins.dep1));
    ready = L::max(ready, producer_done<L>(s.complete, i, ins.dep2));

    // ---------------- issue & execute ----------------
    const V issue_time =
        L::claim(s.slots, kIssue, acquire<L>(s.units[kPoolOf[op]], ready), t);
    const V complete_time =
        issue_time + L::splat(t.op_latency[op]) +
        L::load(t.load_latency[(o >> outcome::kLoadShift) &
                               outcome::kFieldMask]);

    // ---------------- branch resolution ----------------
    // A mispredict refetches after it resolves; a correctly predicted taken
    // branch still ends the fetch group. Either way the functional pass
    // marked the next instruction as a new fetch line. It sets at most one
    // of the two bits, so at most one term below is nonzero.
    const V redirect =
        ((complete_time + L::load(t.mispredict_penalty)) &
         L::splat(all_ones_if((o & outcome::kMispredict) != 0))) |
        ((fetch_time + one) &
         L::splat(all_ones_if((o & outcome::kTakenBranch) != 0)));
    fetch_ready = L::max(fetch_ready, redirect);

    // ---------------- commit ----------------
    V commit_time = L::max(complete_time + one, prev_commit);
    const M same_cycle = L::eq(commit_time, prev_commit);
    const M cycle_full = L::both(same_cycle, L::eq(commits_in_cycle, width));
    commit_time = commit_time + L::one_if(cycle_full);
    commits_in_cycle = L::select(L::and_not(same_cycle, cycle_full),
                                 commits_in_cycle + one, one);
    prev_commit = commit_time;
    L::store(s.complete[i & kRingMask], complete_time);
    L::store(s.commit[i & kRingMask], commit_time);
    // A non-memory op writes the slot the next memory op overwrites.
    L::store(s.mem_commit[mem_ops & kRingMask], commit_time);
    mem_ops += is_mem;
  }
  L::store(cycles, prev_commit);
}

}  // namespace
}  // namespace dsml::sim::detail
