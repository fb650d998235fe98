// The per-sample SGD step of ml::MlpTrainer, written once over N lanes.
// Private to src/ml (mlp_trainer.cpp, trainer_avx2.cpp, trainer_avx512.cpp).
//
// The trainer holds each layer transposed, fan_in x ld with ld the layer's
// fan_out rounded up to N, so one vector holds N units' weights from one
// input. Momentum buffers and masks share the layout. Padding units have
// weight, bias, velocity and mask 0 and are never read as inputs.
//
// Every element sees the operations and order of the scalar loop the tests
// keep in tests/support/reference_mlp.cpp, so any N gives the same bits:
//
//   forward      z = bias, then + w * in for each input in ascending order,
//                N units per vector; sigmoid is one libm exp per real unit;
//   deltas       the output delta is the error; a hidden unit's delta is
//                0.0 + w * delta_next over the next layer's units in
//                ascending order, then (d * a) * (1 - a);
//   update       lrd = learning_rate * delta once per sample, then
//                nv = momentum * v - lrd * in and w + nv, kept by a vector
//                select only where the mask is nonzero (frozen weights and
//                padding stay as they are); the bias always steps.
//
// No FMA: each TU is compiled with -ffp-contract=off (src/ml/CMakeLists.txt),
// since GCC contracts a * b + c even in a -mavx512f TU without __FMA__.
//
// Everything after the declarations has internal linkage, so each lane TU
// and the baseline TU compile their own copy of every function they use,
// and the linker can never hand a baseline caller a vector body. For the
// same reason the step calls no standard-library template.
#pragma once

#include <cmath>
#include <cstddef>

namespace dsml::ml::detail {

/// One layer of the trainer's layout, as the step reads it.
struct LaneLayer {
  std::size_t fan_in = 0;   ///< rows of w, v and mask
  std::size_t fan_out = 0;  ///< real units
  std::size_t ld = 0;       ///< fan_out rounded up to the lane count
  double* w = nullptr;      ///< fan_in x ld
  double* v = nullptr;      ///< fan_in x ld, momentum
  const double* mask = nullptr;  ///< fan_in x ld; 0 frozen
  double* b = nullptr;      ///< ld
  double* bv = nullptr;     ///< ld, bias momentum
  double* act = nullptr;    ///< ld scratch: the layer's outputs
  double* delta = nullptr;  ///< ld scratch; padding stays 0
  double* lrd = nullptr;    ///< ld scratch: learning_rate * delta
  bool output = false;      ///< linear unit if true, sigmoid otherwise
};

/// The whole network: layers first hidden to output.
struct LaneNet {
  const LaneLayer* layers = nullptr;
  std::size_t n_layers = 0;
  std::size_t n_inputs = 0;
  const unsigned char* input_enabled = nullptr;  ///< 0 reads the input as 0
  double* input = nullptr;  ///< n_inputs scratch: the masked input row
};

/// One lane width's entry points.
struct LaneKernels {
  /// One epoch over rows order[0..n) of x (leading dimension ldx); returns
  /// the sum of the squared errors, each taken before its sample's update.
  double (*epoch)(const LaneNet& net, const double* x, std::size_t ldx,
                  const double* y, const std::size_t* order, std::size_t n,
                  double learning_rate, double momentum);
  /// The sum of the squared errors over rows 0..n in order.
  double (*sum_squares)(const LaneNet& net, const double* x, std::size_t ldx,
                        const double* y, std::size_t n);
};

const LaneKernels& lane_kernels_2() noexcept;  ///< mlp_trainer.cpp
const LaneKernels& lane_kernels_4() noexcept;  ///< trainer_avx2.cpp
const LaneKernels& lane_kernels_8() noexcept;  ///< trainer_avx512.cpp

namespace {

/// N doubles as one vector of the compiler's vector extensions. GCC 12
/// drops a vector_size that depends on a template parameter, so each width
/// is spelled out, and each only where its TU's flags allow it.
template <std::size_t N>
struct Doubles;
template <>
struct Doubles<2> {
  typedef double V __attribute__((vector_size(16)));
};
#if defined(__AVX2__)
template <>
struct Doubles<4> {
  typedef double V __attribute__((vector_size(32)));
};
#endif
#if defined(__AVX512F__)
template <>
struct Doubles<8> {
  typedef double V __attribute__((vector_size(64)));
};
#endif

template <std::size_t N>
struct Step {
  using V = typename Doubles<N>::V;

  static V load(const double* p) {
    V v{};
    __builtin_memcpy(&v, p, sizeof v);
    return v;
  }
  static void store(double* p, V v) { __builtin_memcpy(p, &v, sizeof v); }

  static double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

  /// K vectors of units [u, u + K * N): each starts from its bias and adds
  /// one input's terms at a time, so K independent chains share the loads
  /// of `in`.
  template <std::size_t K>
  static void affine(const LaneLayer& l, const double* in, std::size_t u) {
    V z[K] = {};
    for (std::size_t k = 0; k < K; ++k) z[k] = load(l.b + u + k * N);
    const double* w = l.w + u;
    for (std::size_t j = 0; j < l.fan_in; ++j, w += l.ld) {
      const double x = in[j];
      for (std::size_t k = 0; k < K; ++k) z[k] += load(w + k * N) * x;
    }
    for (std::size_t k = 0; k < K; ++k) store(l.act + u + k * N, z[k]);
  }

  /// Writes the layer's outputs for `in` into l.act.
  static void layer_forward(const LaneLayer& l, const double* in) {
    std::size_t u = 0;
    for (; u + 4 * N <= l.ld; u += 4 * N) affine<4>(l, in, u);
    switch ((l.ld - u) / N) {
      case 3: affine<3>(l, in, u); break;
      case 2: affine<2>(l, in, u); break;
      case 1: affine<1>(l, in, u); break;
      default: break;
    }
    if (!l.output) {
      for (std::size_t i = 0; i < l.fan_out; ++i) l.act[i] = sigmoid(l.act[i]);
    }
  }

  /// The network's output for input row `x`; every layer's act holds its
  /// outputs afterwards.
  static double forward(const LaneNet& net, const double* x) {
    for (std::size_t j = 0; j < net.n_inputs; ++j) {
      net.input[j] = net.input_enabled[j] ? x[j] : 0.0;
    }
    const double* in = net.input;
    for (std::size_t li = 0; li < net.n_layers; ++li) {
      layer_forward(net.layers[li], in);
      in = net.layers[li].act;
    }
    return net.layers[net.n_layers - 1].act[0];
  }

  /// Hidden layer h's deltas from the next layer's, with the next layer's
  /// weights as they were before this sample's update.
  static void hidden_delta(const LaneLayer& h, const LaneLayer& next) {
    for (std::size_t j = 0; j < h.fan_out; ++j) {
      const double* row = next.w + j * next.ld;  // unit j's outgoing weights
      double d = 0.0;
      for (std::size_t i = 0; i < next.fan_out; ++i) d += row[i] * next.delta[i];
      const double a = h.act[j];
      h.delta[j] = d * a * (1.0 - a);
    }
  }

  /// The momentum step of one layer fed by `in`.
  static void update(const LaneLayer& l, const double* in,
                     double learning_rate, double momentum) {
    for (std::size_t u = 0; u < l.ld; u += N) {
      store(l.lrd + u, load(l.delta + u) * learning_rate);
    }
    for (std::size_t j = 0; j < l.fan_in; ++j) {
      const double x = in[j];
      double* w = l.w + j * l.ld;
      double* v = l.v + j * l.ld;
      const double* m = l.mask + j * l.ld;
      for (std::size_t u = 0; u < l.ld; u += N) {
        const V vu = load(v + u);
        const V wu = load(w + u);
        const V nv = vu * momentum - load(l.lrd + u) * x;
        const auto keep = load(m + u) != 0.0;
        store(v + u, keep ? nv : vu);
        store(w + u, keep ? wu + nv : wu);
      }
    }
    for (std::size_t u = 0; u < l.ld; u += N) {
      const V bv = load(l.bv + u) * momentum - load(l.lrd + u);
      store(l.bv + u, bv);
      store(l.b + u, load(l.b + u) + bv);
    }
  }

  static double epoch(const LaneNet& net, const double* x, std::size_t ldx,
                      const double* y, const std::size_t* order,
                      std::size_t n, double learning_rate, double momentum) {
    const std::size_t last = net.n_layers - 1;
    double ss = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t s = order[k];
      const double err = forward(net, x + s * ldx) - y[s];
      ss += err * err;
      net.layers[last].delta[0] = err;
      for (std::size_t li = last; li-- > 0;) {
        hidden_delta(net.layers[li], net.layers[li + 1]);
      }
      const double* in = net.input;
      for (std::size_t li = 0; li < net.n_layers; ++li) {
        update(net.layers[li], in, learning_rate, momentum);
        in = net.layers[li].act;
      }
    }
    return ss;
  }

  static double sum_squares(const LaneNet& net, const double* x,
                            std::size_t ldx, const double* y, std::size_t n) {
    double ss = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      const double d = forward(net, x + r * ldx) - y[r];
      ss += d * d;
    }
    return ss;
  }
};

}  // namespace
}  // namespace dsml::ml::detail
