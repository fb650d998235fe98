// The four-lane instantiation of the timing kernel (timing_kernel.hpp): one
// configuration per 64-bit lane of a 256-bit vector. Compiled with -mavx2
// (src/sim/CMakeLists.txt); core.cpp calls it only when cpuid reports AVX2
// and not AVX-512F. The lane arithmetic lowers to AVX2 integer ops (vpaddq,
// vpcmpgtq, vpcmpeqq, vpblendvb).
#include "sim/timing_kernel.hpp"

#if defined(__AVX2__)

namespace dsml::sim::detail {

void time_vector_lanes(const LaneTables<4>& tables, LaneState<4>& state,
                       const Instr* trace, const Outcome* outcomes,
                       std::size_t n, std::uint64_t* cycles) {
  time_lanes<VectorLanes<4>>(tables, state, trace, outcomes, n, cycles);
}

}  // namespace dsml::sim::detail

#endif  // __AVX2__
