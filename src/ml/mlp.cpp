#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "linalg/kernels.hpp"

namespace dsml::ml {

Mlp::Mlp(std::size_t n_inputs, std::vector<std::size_t> hidden, Rng& rng)
    : n_inputs_(n_inputs), hidden_sizes_(std::move(hidden)) {
  DSML_REQUIRE(n_inputs_ > 0, "Mlp: need at least one input");
  for (std::size_t h : hidden_sizes_) {
    DSML_REQUIRE(h > 0, "Mlp: hidden layer of width zero");
  }
  input_enabled_.assign(n_inputs_, true);

  std::size_t fan_in = n_inputs_;
  for (std::size_t li = 0; li <= hidden_sizes_.size(); ++li) {
    const bool is_output = (li == hidden_sizes_.size());
    const std::size_t fan_out = is_output ? 1 : hidden_sizes_[li];
    Layer layer;
    layer.output = is_output;
    layer.w = linalg::Matrix(fan_out, fan_in);
    layer.w_mask = linalg::Matrix(fan_out, fan_in, 1.0);
    layer.w_vel = linalg::Matrix(fan_out, fan_in);
    layer.b.assign(fan_out, 0.0);
    layer.b_vel.assign(fan_out, 0.0);
    const double r = 1.0 / std::sqrt(static_cast<double>(fan_in));
    for (std::size_t i = 0; i < fan_out; ++i) {
      for (std::size_t j = 0; j < fan_in; ++j) {
        // One-time construction, and the Rng draw order is load-bearing.
        layer.w(i, j) = rng.uniform(-r, r);  // dsml-lint: allow(matrix-elem-in-loop)
      }
      layer.b[i] = rng.uniform(-r, r);
    }
    layers_.push_back(std::move(layer));
    fan_in = fan_out;
  }
}

std::size_t Mlp::parameter_count() const noexcept {
  std::size_t n = 0;
  for (const auto& layer : layers_) {
    for (double m : layer.w_mask.data()) {
      if (m != 0.0) ++n;
    }
    n += layer.b.size();
  }
  return n;
}

bool Mlp::all_inputs_enabled() const noexcept {
  return std::all_of(input_enabled_.begin(), input_enabled_.end(),
                     [](bool e) { return e; });
}

void Mlp::forward_block(const double* x, std::size_t ldx, std::size_t rows,
                        double* out, linalg::Workspace& ws) const {
  linalg::Workspace::Scope scope(ws);
  const double* cur = x;
  std::size_t ldcur = ldx;
  if (!all_inputs_enabled()) {
    // Mirror the scalar path's masking: a disabled feature reads as 0.0
    // whatever the input holds (NaN included), not merely 0-weighted.
    std::span<double> masked = ws.take(rows * n_inputs_);
    for (std::size_t r = 0; r < rows; ++r) {
      const double* src = x + r * ldx;
      double* dst = masked.data() + r * n_inputs_;
      for (std::size_t j = 0; j < n_inputs_; ++j) {
        dst[j] = input_enabled_[j] ? src[j] : 0.0;
      }
    }
    cur = masked.data();
    ldcur = n_inputs_;
  }
  std::size_t fan_in = n_inputs_;
  for (const Layer& layer : layers_) {
    const std::size_t fan_out = layer.w.rows();
    std::span<double> next = ws.take(rows * fan_out);
    linalg::kernels::affine_forward(cur, ldcur, rows, fan_in,
                                    layer.w.data().data(), layer.b.data(),
                                    fan_out, !layer.output, next.data(),
                                    fan_out, ws);
    cur = next.data();
    ldcur = fan_out;
    fan_in = fan_out;
  }
  // The output layer is a single linear unit, so the final activation block
  // is one column: copy it out.
  for (std::size_t r = 0; r < rows; ++r) out[r] = cur[r * ldcur];
}

double Mlp::predict(std::span<const double> x) const {
  DSML_REQUIRE(x.size() == n_inputs_, "Mlp::predict: input size mismatch");
  double out = 0.0;
  forward_block(x.data(), x.size(), 1, &out, linalg::tls_workspace());
  return out;
}

std::vector<double> Mlp::predict(const linalg::Matrix& x) const {
  DSML_REQUIRE(x.cols() == n_inputs_, "Mlp::predict: input width mismatch");
  std::vector<double> out(x.rows());
  // Chunks are dispatched across the pool; every chunk writes only its own
  // out[b, e) slice and scratch is per worker thread, so the result is
  // deterministic and identical to the serial row loop.
  constexpr std::size_t kChunk = 256;
  parallel_for_chunks(0, x.rows(), kChunk,
                      [&](std::size_t b, std::size_t e) {
                        forward_block(x.row(b).data(), x.cols(), e - b,
                                      out.data() + b, linalg::tls_workspace());
                      });
  return out;
}

double Mlp::hidden_unit_saliency(std::size_t layer, std::size_t unit) const {
  DSML_REQUIRE(layer < hidden_sizes_.size(),
               "hidden_unit_saliency: layer out of range");
  DSML_REQUIRE(unit < layers_[layer].w.rows(),
               "hidden_unit_saliency: unit out of range");
  // Outgoing weights live in the next layer's column `unit`.
  const Layer& next = layers_[layer + 1];
  double s = 0.0;
  for (std::size_t i = 0; i < next.w.rows(); ++i) {
    // Cold pruning heuristic, one column.
    s += std::abs(next.w(i, unit));  // dsml-lint: allow(matrix-elem-in-loop)
  }
  return s;
}

double Mlp::input_saliency(std::size_t input) const {
  DSML_REQUIRE(input < n_inputs_, "input_saliency: input out of range");
  if (!input_enabled_[input]) return 0.0;
  const Layer& first = layers_.front();
  double s = 0.0;
  for (std::size_t i = 0; i < first.w.rows(); ++i) {
    // Cold pruning heuristic, one column.
    s += std::abs(first.w(i, input));  // dsml-lint: allow(matrix-elem-in-loop)
  }
  return s;
}

void Mlp::remove_hidden_unit(std::size_t layer, std::size_t unit) {
  DSML_REQUIRE(layer < hidden_sizes_.size(),
               "remove_hidden_unit: layer out of range");
  DSML_REQUIRE(hidden_sizes_[layer] > 1,
               "remove_hidden_unit: cannot empty a hidden layer");
  Layer& cur = layers_[layer];
  DSML_REQUIRE(unit < cur.w.rows(), "remove_hidden_unit: unit out of range");

  auto drop_row = [](linalg::Matrix& m, std::size_t row) {
    linalg::Matrix out(m.rows() - 1, m.cols());
    std::size_t dst = 0;
    for (std::size_t r = 0; r < m.rows(); ++r) {
      if (r == row) continue;
      std::copy_n(m.row(r).data(), m.cols(), out.row(dst).data());
      ++dst;
    }
    m = std::move(out);
  };
  auto drop_col = [](linalg::Matrix& m, std::size_t col) {
    linalg::Matrix out(m.rows(), m.cols() - 1);
    for (std::size_t r = 0; r < m.rows(); ++r) {
      std::size_t dst = 0;
      for (std::size_t c = 0; c < m.cols(); ++c) {
        if (c == col) continue;
        // Cold network surgery.
        out(r, dst++) = m(r, c);  // dsml-lint: allow(matrix-elem-in-loop)
      }
    }
    m = std::move(out);
  };

  drop_row(cur.w, unit);
  drop_row(cur.w_mask, unit);
  drop_row(cur.w_vel, unit);
  cur.b.erase(cur.b.begin() + static_cast<std::ptrdiff_t>(unit));
  cur.b_vel.erase(cur.b_vel.begin() + static_cast<std::ptrdiff_t>(unit));

  Layer& next = layers_[layer + 1];
  drop_col(next.w, unit);
  drop_col(next.w_mask, unit);
  drop_col(next.w_vel, unit);

  --hidden_sizes_[layer];
}

void Mlp::add_hidden_unit(std::size_t layer, Rng& rng) {
  DSML_REQUIRE(layer < hidden_sizes_.size(),
               "add_hidden_unit: layer out of range");
  Layer& cur = layers_[layer];
  const std::size_t fan_in = cur.w.cols();

  auto append_row = [](linalg::Matrix& m, double fill) {
    linalg::Matrix out(m.rows() + 1, m.cols(), fill);
    for (std::size_t r = 0; r < m.rows(); ++r) {
      std::copy_n(m.row(r).data(), m.cols(), out.row(r).data());
    }
    m = std::move(out);
  };
  auto append_col = [](linalg::Matrix& m, double fill) {
    linalg::Matrix out(m.rows(), m.cols() + 1, fill);
    for (std::size_t r = 0; r < m.rows(); ++r) {
      std::copy_n(m.row(r).data(), m.cols(), out.row(r).data());
    }
    m = std::move(out);
  };

  append_row(cur.w, 0.0);
  append_row(cur.w_mask, 1.0);
  append_row(cur.w_vel, 0.0);
  const double r_in = 1.0 / std::sqrt(static_cast<double>(fan_in));
  const std::size_t new_row = cur.w.rows() - 1;
  // Cold network surgery: one fresh row, Rng draw order load-bearing.
  for (std::size_t j = 0; j < fan_in; ++j) {
    cur.w(new_row, j) = rng.uniform(-r_in, r_in);  // dsml-lint: allow(matrix-elem-in-loop)
    // Respect disabled inputs in the first layer.
    if (layer == 0 && !input_enabled_[j]) {
      cur.w(new_row, j) = 0.0;  // dsml-lint: allow(matrix-elem-in-loop)
      cur.w_mask(new_row, j) = 0.0;  // dsml-lint: allow(matrix-elem-in-loop)
    }
  }
  cur.b.push_back(rng.uniform(-r_in, r_in));
  cur.b_vel.push_back(0.0);

  Layer& next = layers_[layer + 1];
  append_col(next.w, 0.0);
  append_col(next.w_mask, 1.0);
  append_col(next.w_vel, 0.0);
  const double r_out =
      1.0 / std::sqrt(static_cast<double>(next.w.cols()));
  for (std::size_t i = 0; i < next.w.rows(); ++i) {
    next.w(i, next.w.cols() - 1) = rng.uniform(-r_out, r_out);
  }

  ++hidden_sizes_[layer];
}

void Mlp::disable_input(std::size_t input) {
  DSML_REQUIRE(input < n_inputs_, "disable_input: input out of range");
  input_enabled_[input] = false;
  Layer& first = layers_.front();
  // Cold: zeroes one column when pruning disables a feature.
  for (std::size_t i = 0; i < first.w.rows(); ++i) {
    first.w(i, input) = 0.0;  // dsml-lint: allow(matrix-elem-in-loop)
    first.w_mask(i, input) = 0.0;  // dsml-lint: allow(matrix-elem-in-loop)
    first.w_vel(i, input) = 0.0;  // dsml-lint: allow(matrix-elem-in-loop)
  }
}

bool Mlp::input_enabled(std::size_t input) const {
  DSML_REQUIRE(input < n_inputs_, "input_enabled: input out of range");
  return input_enabled_[input];
}

std::size_t Mlp::enabled_input_count() const noexcept {
  return static_cast<std::size_t>(
      std::count(input_enabled_.begin(), input_enabled_.end(), true));
}

void save_matrix(serial::Writer& writer, const linalg::Matrix& m) {
  writer.u64(m.rows());
  writer.u64(m.cols());
  for (double v : m.data()) writer.f64(v);
}

linalg::Matrix load_matrix(serial::Reader& reader) {
  const std::uint64_t rows = reader.u64();
  const std::uint64_t cols = reader.u64();
  if (cols != 0 && rows > std::numeric_limits<std::uint64_t>::max() / cols) {
    throw IoError("load_matrix: a " + std::to_string(rows) + " x " +
                  std::to_string(cols) + " matrix overflows");
  }
  std::vector<double> values;
  for (std::uint64_t i = 0; i < rows * cols; ++i) {
    values.push_back(reader.f64());
  }
  linalg::Matrix m(rows, cols);
  std::copy(values.begin(), values.end(), m.data().begin());
  return m;
}

void Mlp::save(serial::Writer& writer) const {
  writer.tag("mlp");
  writer.u64(n_inputs_);
  writer.u64(hidden_sizes_.size());
  for (std::size_t h : hidden_sizes_) writer.u64(h);
  writer.u64(input_enabled_.size());
  for (bool e : input_enabled_) writer.boolean(e);
  writer.u64(layers_.size());
  for (const auto& layer : layers_) {
    save_matrix(writer, layer.w);
    save_matrix(writer, layer.w_mask);
    writer.f64_vector(layer.b);
    writer.boolean(layer.output);
  }
}

namespace {

/// A model file whose fields disagree fails here, naming the field, rather
/// than in a later forward pass that trusts them.
void check_field(bool ok, const std::string& what) {
  if (!ok) throw IoError("Mlp::load: " + what);
}

}  // namespace

Mlp Mlp::load(serial::Reader& reader) {
  reader.expect_tag("mlp");
  Mlp net;
  net.n_inputs_ = reader.u64();
  check_field(net.n_inputs_ > 0, "n_inputs is 0");
  const std::uint64_t n_hidden = reader.u64();
  for (std::uint64_t i = 0; i < n_hidden; ++i) {
    net.hidden_sizes_.push_back(reader.u64());
    check_field(net.hidden_sizes_.back() > 0,
                "hidden size " + std::to_string(i) + " is 0");
  }
  const std::uint64_t n_inputs_flags = reader.u64();
  check_field(n_inputs_flags == net.n_inputs_,
              "input_enabled has " + std::to_string(n_inputs_flags) +
                  " flags for " + std::to_string(net.n_inputs_) + " inputs");
  for (std::uint64_t i = 0; i < n_inputs_flags; ++i) {
    net.input_enabled_.push_back(reader.boolean());
  }
  const std::uint64_t n_layers = reader.u64();
  check_field(n_layers == n_hidden + 1,
              std::to_string(n_layers) + " layers for " +
                  std::to_string(n_hidden) + " hidden sizes");
  std::size_t fan_in = net.n_inputs_;
  for (std::uint64_t i = 0; i < n_layers; ++i) {
    const std::string field = "layer " + std::to_string(i);
    Layer layer;
    layer.w = load_matrix(reader);
    layer.w_mask = load_matrix(reader);
    layer.b = reader.f64_vector();
    layer.output = reader.boolean();
    check_field(layer.w.same_shape(layer.w_mask) &&
                    layer.b.size() == layer.w.rows(),
                field + " weights, mask and biases differ in shape");
    check_field(layer.w.cols() == fan_in,
                field + " has " + std::to_string(layer.w.cols()) +
                    " columns for " + std::to_string(fan_in) + " inputs");
    const bool last = (i + 1 == n_layers);
    const std::size_t rows = last ? 1 : net.hidden_sizes_[i];
    check_field(layer.w.rows() == rows,
                field + " has " + std::to_string(layer.w.rows()) +
                    " rows, expected " + std::to_string(rows));
    check_field(layer.output == last,
                field + (last ? " is not the output layer"
                              : " is an output layer before the last"));
    layer.w_vel = linalg::Matrix(layer.w.rows(), layer.w.cols());
    layer.b_vel.assign(layer.b.size(), 0.0);
    fan_in = layer.w.rows();
    net.layers_.push_back(std::move(layer));
  }
  return net;
}

void Mlp::prune_smallest_weights(double fraction) {
  DSML_REQUIRE(fraction >= 0.0 && fraction < 1.0,
               "prune_smallest_weights: fraction outside [0,1)");
  if (fraction == 0.0) return;
  std::vector<double> magnitudes;
  for (const auto& layer : layers_) {
    const auto w = layer.w.data();
    const auto m = layer.w_mask.data();
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (m[i] != 0.0) magnitudes.push_back(std::abs(w[i]));
    }
  }
  if (magnitudes.empty()) return;
  const auto k = static_cast<std::size_t>(
      fraction * static_cast<double>(magnitudes.size()));
  if (k == 0) return;
  std::nth_element(magnitudes.begin(),
                   magnitudes.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   magnitudes.end());
  const double threshold = magnitudes[k - 1];
  for (auto& layer : layers_) {
    auto w = layer.w.data();
    auto m = layer.w_mask.data();
    auto v = layer.w_vel.data();
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (m[i] != 0.0 && std::abs(w[i]) <= threshold) {
        w[i] = 0.0;
        m[i] = 0.0;
        v[i] = 0.0;
      }
    }
  }
}

}  // namespace dsml::ml
