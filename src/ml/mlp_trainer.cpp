#include "ml/mlp_trainer.hpp"

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/cpu.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "ml/trainer_kernel.hpp"

namespace dsml::ml {

namespace detail {

// The portable step: two lanes, SSE2 on x86-64 and whatever the target's
// vectors are elsewhere. Built with -ffp-contract=off like the others.
const LaneKernels& lane_kernels_2() noexcept {
  static constexpr LaneKernels kKernels{&Step<2>::epoch, &Step<2>::sum_squares};
  return kKernels;
}

}  // namespace detail

namespace {

// The vector steps this build carries (src/ml/CMakeLists.txt compiles a
// lane TU when the compiler takes its flag).
#if defined(DSML_ML_HAVE_AVX2)
constexpr bool kHaveFourLanes = true;
#else
constexpr bool kHaveFourLanes = false;
#endif
#if defined(DSML_ML_HAVE_AVX512)
constexpr bool kHaveEightLanes = true;
#else
constexpr bool kHaveEightLanes = false;
#endif

const detail::LaneKernels& kernels_for(std::size_t lanes) {
#if defined(DSML_ML_HAVE_AVX512)
  if (lanes == 8) return detail::lane_kernels_8();
#endif
#if defined(DSML_ML_HAVE_AVX2)
  if (lanes == 4) return detail::lane_kernels_4();
#endif
  DSML_ASSERT(lanes == 2);
  return detail::lane_kernels_2();
}

// Each buffer holds 7 spare doubles so that its used part can start on a
// 64-byte boundary: with a row length that is a multiple of the lane count,
// no eight-lane load then splits a cache line.
constexpr std::size_t kSpare = 64 / sizeof(double) - 1;

double* aligned_start(std::vector<double>& buffer) {
  const auto addr = reinterpret_cast<std::uintptr_t>(buffer.data());
  return buffer.data() + (64 - addr % 64) % 64 / sizeof(double);
}

}  // namespace

bool MlpTrainer::lanes_supported(std::size_t n) noexcept {
  return n == 2 || (n == 4 && kHaveFourLanes && cpu::has_avx2()) ||
         (n == 8 && kHaveEightLanes && cpu::has_avx512f());
}

std::size_t MlpTrainer::lane_width() noexcept {
  return lanes_supported(8) ? 8 : lanes_supported(4) ? 4 : 2;
}

MlpTrainer::MlpTrainer(Mlp net, std::size_t lanes)
    : net_(std::move(net)), lanes_(lanes) {
  if (!lanes_supported(lanes)) {
    throw StateError("MlpTrainer: no " + std::to_string(lanes) +
                     "-lane step on this host");
  }
  kernels_ = &kernels_for(lanes);
  static metrics::Gauge& width = metrics::gauge("ml.lane_width");
  width.set(static_cast<double>(lanes));

  const std::span<const Mlp::Layer> net_layers = net_.layers();
  std::size_t n_params = 0;
  std::size_t n_masks = 0;
  std::size_t n_scratch = net_.n_inputs();
  for (const Mlp::Layer& layer : net_layers) {
    const std::size_t ld = (layer.w.rows() + lanes - 1) / lanes * lanes;
    n_params += 2 * layer.w.cols() * ld + 2 * ld;
    n_masks += layer.w.cols() * ld;
    n_scratch += 3 * ld;
  }
  params_.assign(n_params + kSpare, 0.0);
  masks_.assign(n_masks + kSpare, 0.0);
  scratch_.assign(n_scratch + kSpare, 0.0);
  live_ = aligned_start(params_);
  double* p = live_;
  double* m = aligned_start(masks_);
  double* s = aligned_start(scratch_);

  layers_.resize(net_layers.size());
  for (std::size_t li = 0; li < net_layers.size(); ++li) {
    const Mlp::Layer& layer = net_layers[li];
    detail::LaneLayer& l = layers_[li];
    l.fan_in = layer.w.cols();
    l.fan_out = layer.w.rows();
    l.ld = (l.fan_out + lanes - 1) / lanes * lanes;
    l.output = layer.output;
    const std::size_t block = l.fan_in * l.ld;
    double* w = p;
    double* v = p + block;
    double* mask = m;
    l.w = w;
    l.v = v;
    l.b = p + 2 * block;
    l.bv = p + 2 * block + l.ld;
    l.mask = mask;
    p += 2 * block + 2 * l.ld;
    m += block;
    l.act = s;
    l.delta = s + l.ld;
    l.lrd = s + 2 * l.ld;
    s += 3 * l.ld;

    // Transpose in: unit i's weight from input j goes to row j, lane i.
    const std::span<const double> wr = layer.w.data();
    const std::span<const double> vr = layer.w_vel.data();
    const std::span<const double> mr = layer.w_mask.data();
    for (std::size_t i = 0; i < l.fan_out; ++i) {
      for (std::size_t j = 0; j < l.fan_in; ++j) {
        w[j * l.ld + i] = wr[i * l.fan_in + j];
        v[j * l.ld + i] = vr[i * l.fan_in + j];
        mask[j * l.ld + i] = mr[i * l.fan_in + j];
      }
      l.b[i] = layer.b[i];
      l.bv[i] = layer.b_vel[i];
    }
  }
  input_ = s;
  input_enabled_.resize(net_.n_inputs());
  for (std::size_t j = 0; j < input_enabled_.size(); ++j) {
    input_enabled_[j] = net_.input_enabled(j) ? 1 : 0;
  }
  best_.assign(live_, live_ + n_params);
}

MlpTrainer::~MlpTrainer() = default;

detail::LaneNet MlpTrainer::lane_net() const {
  return {layers_.data(), layers_.size(), net_.n_inputs(),
          input_enabled_.data(), input_};
}

void MlpTrainer::require_rows(const linalg::Matrix& x,
                              std::span<const double> y,
                              const char* what) const {
  DSML_REQUIRE(x.rows() == y.size() && !y.empty(),
               std::string(what) + ": size mismatch");
  DSML_REQUIRE(x.cols() == net_.n_inputs(),
               std::string(what) + ": input width mismatch");
}

double MlpTrainer::train_epoch(const linalg::Matrix& x,
                               std::span<const double> y,
                               double learning_rate, double momentum,
                               Rng& rng) {
  require_rows(x, y, "MlpTrainer::train_epoch");
  trace::Span span("Mlp::train_epoch", "ml");
  static metrics::Counter& epochs = metrics::counter("ml.train_epochs");
  epochs.add();

  order_.resize(x.rows());
  for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  rng.shuffle(order_);
  const double ss =
      kernels_->epoch(lane_net(), x.data().data(), x.cols(), y.data(),
                      order_.data(), order_.size(), learning_rate, momentum);
  const double mse = ss / static_cast<double>(y.size());
  static metrics::Gauge& loss = metrics::gauge("ml.train_loss");
  loss.set(mse);
  trace::counter("ml.train_loss", mse);
  return mse;
}

double MlpTrainer::mse(const linalg::Matrix& x, std::span<const double> y) {
  require_rows(x, y, "MlpTrainer::mse");
  return kernels_->sum_squares(lane_net(), x.data().data(), x.cols(),
                               y.data(), y.size()) /
         static_cast<double>(y.size());
}

void MlpTrainer::keep_best() {
  std::copy_n(live_, best_.size(), best_.data());
}

Mlp MlpTrainer::current() const { return rebuild(live_); }

Mlp MlpTrainer::best() const { return rebuild(best_.data()); }

Mlp MlpTrainer::rebuild(const double* params) const {
  Mlp net = net_;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const detail::LaneLayer& l = layers_[li];
    Mlp::Layer& layer = net.layers_[li];
    // The same offsets in `params` as in the live buffer.
    const double* w = params + (l.w - live_);
    const double* v = params + (l.v - live_);
    const double* b = params + (l.b - live_);
    const double* bv = params + (l.bv - live_);
    const std::span<double> wr = layer.w.data();
    const std::span<double> vr = layer.w_vel.data();
    for (std::size_t i = 0; i < l.fan_out; ++i) {
      for (std::size_t j = 0; j < l.fan_in; ++j) {
        wr[i * l.fan_in + j] = w[j * l.ld + i];
        vr[i * l.fan_in + j] = v[j * l.ld + i];
      }
      layer.b[i] = b[i];
      layer.b_vel[i] = bv[i];
    }
  }
  return net;
}

}  // namespace dsml::ml
