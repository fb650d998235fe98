// The four-lane instantiation of the timing kernel (timing_kernel.hpp): one
// configuration per 64-bit lane of a 256-bit vector. Compiled with -mavx2
// (src/sim/CMakeLists.txt); core.cpp calls it only when cpuid reports AVX2.
// Lane arithmetic uses the compiler's vector extensions, which lower to
// AVX2 integer ops (vpaddq, vpcmpgtq, vpcmpeqq, vpblendvb). AVX2 has no
// 64-bit min/max, so they are a signed compare and a blend: every value the
// kernel compares stays below 2^63.
#include "sim/timing_kernel.hpp"

#if defined(__AVX2__)

namespace dsml::sim::detail {
namespace {

typedef std::int64_t I64x4 __attribute__((vector_size(32)));

struct FourLanes {
  static constexpr std::size_t kLanes = detail::kLanes;
  static constexpr std::size_t kUnits = kMaxUnits;
  using V = I64x4;
  using M = I64x4;  ///< all ones in a lane where the condition holds

  static V splat(std::uint64_t x) {
    const std::int64_t v = lane(x);
    return V{v, v, v, v};
  }
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
  static V width(const LaneTables<kLanes>& t) { return load(t.width); }

  static V look_back(const std::uint64_t (*ring)[kLanes], std::size_t pos,
                     const std::uint64_t* back) {
    return V{lane(ring[(pos - back[0]) & kRingMask][0]),
             lane(ring[(pos - back[1]) & kRingMask][1]),
             lane(ring[(pos - back[2]) & kRingMask][2]),
             lane(ring[(pos - back[3]) & kRingMask][3])};
  }

  /// claim_slot on every lane, with the same cycles and slot words. The
  /// lanes' slots at `earliest` are tested for a full cycle in one vector
  /// compare. When none is full, the common case, each lane claims its slot
  /// at `earliest`, so the claimed cycles never leave the register; the
  /// mask compare is claim_slot's `(slot >> kCountBits) == c` without a
  /// shift of signed lanes. Otherwise every lane walks in claim_slot.
  static V claim(std::uint64_t (*slots)[kLimiterSlots][kLanes],
                 std::size_t limiter, V earliest,
                 const LaneTables<kLanes>& t) {
    std::uint64_t(*const ring)[kLanes] = slots[limiter];
    const V at = earliest & splat(kLimiterSlots - 1);
    std::uint64_t& s0 = ring[cycle(at[0])][0];
    std::uint64_t& s1 = ring[cycle(at[1])][1];
    std::uint64_t& s2 = ring[cycle(at[2])][2];
    std::uint64_t& s3 = ring[cycle(at[3])][3];
    const V slot{lane(s0), lane(s1), lane(s2), lane(s3)};
    const V named = earliest << kCountBits;
    if (none(slot == (named | load(t.width)))) [[likely]] {
      const V next =
          select((slot & splat(~kCountMask)) == named, slot + 1, named | 1);
      s0 = cycle(next[0]);
      s1 = cycle(next[1]);
      s2 = cycle(next[2]);
      s3 = cycle(next[3]);
      return earliest;
    }
    return V{
        lane(claim_slot(slots, limiter, 0, cycle(earliest[0]), t.width[0])),
        lane(claim_slot(slots, limiter, 1, cycle(earliest[1]), t.width[1])),
        lane(claim_slot(slots, limiter, 2, cycle(earliest[2]), t.width[2])),
        lane(claim_slot(slots, limiter, 3, cycle(earliest[3]), t.width[3]))};
  }

 private:
  typedef std::int64_t I64x2 __attribute__((vector_size(16)));

  /// Whether no lane of `m` holds: the two halves OR-ed, then their two
  /// lanes, and one branch on the result.
  static bool none(M m) {
    const I64x2 half = __builtin_shufflevector(m, m, 0, 1) |
                       __builtin_shufflevector(m, m, 2, 3);
    return (half[0] | half[1]) == 0;
  }

  static std::int64_t lane(std::uint64_t x) {
    return static_cast<std::int64_t>(x);
  }
  static std::uint64_t cycle(std::int64_t x) {
    return static_cast<std::uint64_t>(x);
  }
};

}  // namespace

void time_four_lanes(const LaneTables<kLanes>& tables,
                     LaneState<kLanes>& state, const Instr* trace,
                     const Outcome* outcomes, std::size_t n,
                     std::uint64_t* cycles) {
  time_lanes<FourLanes>(tables, state, trace, outcomes, n, cycles);
}

}  // namespace dsml::sim::detail

#endif  // __AVX2__
