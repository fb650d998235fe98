// ml::MlpTrainer against the frozen scalar loop (support/reference_mlp.hpp),
// bit for bit: weights, velocities, biases, each epoch's MSE and each
// validation MSE, on every lane width the host runs plus the portable one.
// A width the host lacks is skipped with a note naming the CPU feature.
#include "ml/mlp_trainer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "support/reference_mlp.hpp"

namespace dsml::ml {
namespace {

struct Width {
  std::size_t lanes;
  const char* feature;
};
constexpr Width kWidths[] = {{2, "SSE2"}, {4, "AVX2"}, {8, "AVX-512F"}};

/// The widths the host runs; a note names the feature of each it lacks.
std::vector<std::size_t> host_widths() {
  std::vector<std::size_t> out;
  for (const Width& w : kWidths) {
    if (MlpTrainer::lanes_supported(w.lanes)) {
      out.push_back(w.lanes);
    } else {
      std::printf("note: %zu-lane step skipped: no %s on this host\n",
                  w.lanes, w.feature);
    }
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_values(std::span<const double> got,
                        std::span<const double> want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(same_bits(got[i], want[i]))
        << what << " [" << i << "]: " << got[i] << " vs " << want[i];
  }
}

/// Every weight, mask, velocity and bias, bit for bit.
void expect_same_layers(std::span<const Mlp::Layer> got,
                        std::span<const Mlp::Layer> want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t l = 0; l < got.size(); ++l) {
    const std::string at = what + ", layer " + std::to_string(l);
    ASSERT_TRUE(got[l].w.same_shape(want[l].w)) << at;
    ASSERT_EQ(got[l].output, want[l].output) << at;
    expect_same_values(got[l].w.data(), want[l].w.data(), at + " w");
    expect_same_values(got[l].w_mask.data(), want[l].w_mask.data(),
                       at + " mask");
    expect_same_values(got[l].w_vel.data(), want[l].w_vel.data(),
                       at + " velocity");
    expect_same_values(got[l].b, want[l].b, at + " bias");
    expect_same_values(got[l].b_vel, want[l].b_vel, at + " bias velocity");
  }
}

struct Data {
  linalg::Matrix x;
  std::vector<double> y;
};

Data random_data(std::size_t rows, std::size_t cols, Rng& rng) {
  Data d{linalg::Matrix(rows, cols), std::vector<double>(rows)};
  for (double& v : d.x.data()) v = rng.uniform();
  for (double& v : d.y) v = rng.uniform();
  return d;
}

/// The trainer's validation MSE against reference::mse, the batched
/// predict that validated each epoch before the trainer, on the trainer's
/// live network.
void expect_same_validation(MlpTrainer& trainer, const Data& val,
                            const std::string& what) {
  const double got = trainer.mse(val.x, val.y);
  const double want = reference::mse(trainer.current(), val.x, val.y);
  EXPECT_TRUE(same_bits(got, want)) << what << ": " << got << " vs " << want;
}

/// Trains `start` for `epochs` with the `lanes`-wide trainer and with the
/// reference, each from the same seed, and compares every epoch's MSE and
/// validation MSE, then the networks. Returns the trained network.
Mlp train_both(const Mlp& start, std::size_t lanes, const Data& learn,
               const Data& val, std::size_t epochs, std::uint64_t seed,
               const std::string& what) {
  MlpTrainer trainer(start, lanes);
  reference::Network ref(start);
  Rng trainer_rng(seed);
  Rng ref_rng(seed);
  expect_same_validation(trainer, val, what + ", before training");
  double lr = 0.4;
  for (std::size_t e = 0; e < epochs; ++e) {
    const double got =
        trainer.train_epoch(learn.x, learn.y, lr, 0.9, trainer_rng);
    const double want = ref.train_epoch(learn.x, learn.y, lr, 0.9, ref_rng);
    EXPECT_TRUE(same_bits(got, want))
        << what << ", epoch " << e << ": " << got << " vs " << want;
    expect_same_validation(trainer, val,
                           what + ", validation after epoch " +
                               std::to_string(e));
    lr *= 0.9;
  }
  Mlp trained = trainer.current();
  expect_same_layers(trained.layers(), ref.layers(), what);
  return trained;
}

std::string name(std::size_t lanes, std::size_t inputs,
                 const std::vector<std::size_t>& hidden) {
  std::ostringstream s;
  s << lanes << " lanes, " << inputs << " inputs, hidden {";
  for (std::size_t h : hidden) s << ' ' << h;
  s << " }";
  return s.str();
}

TEST(MlpTrainer, RebuildsTheNetworkItTookBitForBit) {
  for (std::size_t lanes : host_widths()) {
    Rng rng(11);
    const Data learn = random_data(9, 7, rng);
    Mlp net(7, {13, 5}, rng);
    // A trained network has nonzero velocities to carry over.
    MlpTrainer first(net, lanes);
    for (int e = 0; e < 3; ++e) first.train_epoch(learn.x, learn.y, 0.3, 0.9, rng);
    const Mlp trained = first.current();
    const MlpTrainer second(trained, lanes);
    const std::string what = name(lanes, 7, {13, 5});
    expect_same_layers(second.current().layers(), trained.layers(), what);
    expect_same_layers(second.best().layers(), trained.layers(), what);
    const MlpTrainer fresh(net, lanes);
    expect_same_layers(fresh.current().layers(), net.layers(), what);
  }
}

TEST(MlpTrainer, MatchesReferenceAtEveryWidthOneAndTwoHiddenLayers) {
  const std::vector<std::size_t> widths = host_widths();
  // Hidden widths 1..40 cover every remainder mod 8, 4 and 2.
  for (std::size_t h = 1; h <= 40; ++h) {
    Rng rng(100 + h);
    const std::size_t inputs = 1 + (h * 7) % 23;
    const Data learn = random_data(3 + h % 9, inputs, rng);
    const Data val = random_data(2 + h % 5, inputs, rng);
    const std::vector<std::vector<std::size_t>> shapes = {
        {h}, {h, 1 + (h * 5) % 17}};
    for (const auto& hidden : shapes) {
      const Mlp start(inputs, hidden, rng);
      for (std::size_t lanes : widths) {
        train_both(start, lanes, learn, val, 3, 1000 + h,
                   name(lanes, inputs, hidden));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(MlpTrainer, MatchesReferenceWithDisabledInputsAndPrunedWeights) {
  const std::vector<std::size_t> widths = host_widths();
  for (std::size_t h : {3u, 8u, 9u, 21u}) {
    Rng rng(200 + h);
    const std::size_t inputs = 11;
    const Data learn = random_data(10, inputs, rng);
    const Data val = random_data(5, inputs, rng);
    for (const std::vector<std::size_t>& hidden :
         {std::vector<std::size_t>{h}, std::vector<std::size_t>{h, 6}}) {
      Mlp start(inputs, hidden, rng);
      start.disable_input(0);
      start.disable_input(7);
      start.prune_smallest_weights(0.3);
      for (std::size_t lanes : widths) {
        const Mlp trained = train_both(start, lanes, learn, val, 4, 300 + h,
                                       name(lanes, inputs, hidden));
        if (HasFatalFailure()) return;
        EXPECT_EQ(trained.parameter_count(), start.parameter_count());
      }
    }
  }
}

TEST(MlpTrainer, MatchesReferenceAcrossSurgeryBetweenRuns) {
  for (std::size_t lanes : host_widths()) {
    Rng rng(17);
    const std::size_t inputs = 9;
    const Data learn = random_data(12, inputs, rng);
    const Data val = random_data(6, inputs, rng);
    Mlp net(inputs, {7, 4}, rng);
    net = train_both(net, lanes, learn, val, 3, 1, name(lanes, inputs, {7, 4}));
    net.add_hidden_unit(0, rng);
    net = train_both(net, lanes, learn, val, 3, 2, name(lanes, inputs, {8, 4}));
    net.remove_hidden_unit(1, 2);
    net = train_both(net, lanes, learn, val, 3, 3, name(lanes, inputs, {8, 3}));
    net.disable_input(4);
    net.prune_smallest_weights(0.1);
    net.add_hidden_unit(1, rng);
    train_both(net, lanes, learn, val, 3, 4, name(lanes, inputs, {8, 4}));
    if (HasFatalFailure()) return;
  }
}

TEST(MlpTrainer, BestIsTheLastKeptSnapshot) {
  for (std::size_t lanes : host_widths()) {
    Rng rng(23);
    const Data learn = random_data(8, 5, rng);
    const Mlp net(5, {9}, rng);
    MlpTrainer trainer(net, lanes);
    // Before any keep_best(), best() is the network the trainer took.
    expect_same_layers(trainer.best().layers(), net.layers(), "untouched");
    trainer.train_epoch(learn.x, learn.y, 0.3, 0.9, rng);
    trainer.keep_best();
    const Mlp kept = trainer.current();
    trainer.train_epoch(learn.x, learn.y, 0.3, 0.9, rng);
    expect_same_layers(trainer.best().layers(), kept.layers(), "kept");
  }
}

TEST(MlpTrainer, CountsEpochsAndChecksShapes) {
  Rng rng(29);
  const Data learn = random_data(6, 3, rng);
  MlpTrainer trainer(Mlp(3, {4}, rng));
  EXPECT_EQ(trainer.lanes(), MlpTrainer::lane_width());
  EXPECT_EQ(metrics::gauge("ml.lane_width").value(),
            static_cast<double>(trainer.lanes()));
  std::printf("note: the trainer runs the %zu-lane step on this host\n",
              trainer.lanes());
  metrics::Counter& epochs = metrics::counter("ml.train_epochs");
  const std::uint64_t before = epochs.value();
  trainer.train_epoch(learn.x, learn.y, 0.1, 0.9, rng);
  trainer.train_epoch(learn.x, learn.y, 0.1, 0.9, rng);
  EXPECT_EQ(epochs.value(), before + 2);

  const Data wide = random_data(6, 4, rng);
  EXPECT_THROW(trainer.train_epoch(wide.x, wide.y, 0.1, 0.9, rng),
               InvalidArgument);
  EXPECT_THROW(trainer.mse(learn.x, std::span<const double>(learn.y).first(5)),
               InvalidArgument);
}

TEST(MlpTrainer, RejectsWidthsTheHostDoesNotRun) {
  Rng rng(31);
  const Mlp net(3, {4}, rng);
  for (std::size_t lanes : {0u, 1u, 3u, 16u}) {
    EXPECT_FALSE(MlpTrainer::lanes_supported(lanes)) << lanes;
    EXPECT_THROW(MlpTrainer(net, lanes), StateError) << lanes;
  }
  EXPECT_TRUE(MlpTrainer::lanes_supported(2));
  for (const Width& w : kWidths) {
    if (!MlpTrainer::lanes_supported(w.lanes)) {
      EXPECT_THROW(MlpTrainer(net, w.lanes), StateError) << w.lanes;
    }
  }
}

}  // namespace
}  // namespace dsml::ml
