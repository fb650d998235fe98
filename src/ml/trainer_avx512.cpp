// The eight-lane instantiation of the trainer's step (trainer_kernel.hpp):
// eight units per 512-bit vector. Compiled with -mavx512f -ffp-contract=off
// (src/ml/CMakeLists.txt); mlp_trainer.cpp calls it only when cpuid reports
// AVX-512F.
#include "ml/trainer_kernel.hpp"

#if defined(__AVX512F__)

namespace dsml::ml::detail {

const LaneKernels& lane_kernels_8() noexcept {
  static constexpr LaneKernels kKernels{&Step<8>::epoch, &Step<8>::sum_squares};
  return kKernels;
}

}  // namespace dsml::ml::detail

#endif  // __AVX512F__
