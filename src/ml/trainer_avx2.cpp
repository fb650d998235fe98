// The four-lane instantiation of the trainer's step (trainer_kernel.hpp):
// four units per 256-bit vector. Compiled with -mavx2 -ffp-contract=off
// (src/ml/CMakeLists.txt); mlp_trainer.cpp calls it only when cpuid reports
// AVX2.
#include "ml/trainer_kernel.hpp"

#if defined(__AVX2__)

namespace dsml::ml::detail {

const LaneKernels& lane_kernels_4() noexcept {
  static constexpr LaneKernels kKernels{&Step<4>::epoch, &Step<4>::sum_squares};
  return kKernels;
}

}  // namespace dsml::ml::detail

#endif  // __AVX2__
