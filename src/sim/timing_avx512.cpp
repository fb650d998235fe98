// The eight-lane instantiation of the timing kernel (timing_kernel.hpp): one
// configuration per 64-bit lane of a 512-bit vector, one zmm register per
// value. Compiled with -mavx512f alone (src/sim/CMakeLists.txt); core.cpp
// calls it only when cpuid reports AVX-512F. AVX-512F has 64-bit min and
// max (vpminsq, vpmaxsq), so the FU-pool update needs no blend.
#include "sim/timing_kernel.hpp"

#if defined(__AVX512F__)

namespace dsml::sim::detail {

void time_vector_lanes(const LaneTables<8>& tables, LaneState<8>& state,
                       const Instr* trace, const Outcome* outcomes,
                       std::size_t n, std::uint64_t* cycles) {
  time_lanes<VectorLanes<8>>(tables, state, trace, outcomes, n, cycles);
}

}  // namespace dsml::sim::detail

#endif  // __AVX512F__
