#include "data/encoder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dsml::data {

namespace {

// Scale x from [lo, hi] to [0, 1]; degenerate ranges map to 0.5 so a value
// equal to the constant training value is "in the middle".
double scale01(double x, double lo, double hi) {
  if (hi <= lo) return 0.5;
  return (x - lo) / (hi - lo);
}

}  // namespace

void Encoder::fit(const Dataset& train, const EncoderOptions& options) {
  DSML_REQUIRE(train.n_rows() > 0, "Encoder::fit: empty dataset");
  options_ = options;
  features_.clear();
  dropped_.clear();

  for (std::size_t c = 0; c < train.n_features(); ++c) {
    const Column& col = train.feature(c);
    if (options.drop_constant && col.is_constant()) {
      dropped_.push_back(col.name() + " (no variation)");
      continue;
    }
    const bool numeric_like =
        col.kind() == ColumnKind::kNumeric ||
        col.kind() == ColumnKind::kFlag ||
        (col.kind() == ColumnKind::kCategorical && col.ordered());
    if (numeric_like) {
      EncodedFeature f;
      f.name = col.name();
      f.source_column = c;
      f.one_hot_level = -1;
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < col.size(); ++r) {
        lo = std::min(lo, col.numeric_at(r));
        hi = std::max(hi, col.numeric_at(r));
      }
      f.scale_min = lo;
      f.scale_max = hi;
      features_.push_back(std::move(f));
      continue;
    }
    // Unordered categorical.
    if (options.mode == EncodingMode::kLinearRegression) {
      dropped_.push_back(col.name() + " (categorical, not numeric-mappable)");
      continue;
    }
    // One-hot: one output per level observed in training.
    for (std::size_t level = 0; level < col.level_count(); ++level) {
      EncodedFeature f;
      f.name = col.name() + "=" + col.levels()[level];
      f.source_column = c;
      f.one_hot_level = static_cast<int>(level);
      f.scale_min = 0.0;
      f.scale_max = 1.0;
      features_.push_back(std::move(f));
    }
  }
  DSML_REQUIRE(!features_.empty(),
               "Encoder::fit: every feature was dropped; nothing to model");

  if (train.has_target()) {
    const auto t = train.target();
    target_min_ = *std::min_element(t.begin(), t.end());
    target_max_ = *std::max_element(t.begin(), t.end());
  }
  fitted_ = true;
}

linalg::Matrix Encoder::encode(const Dataset& dataset) const {
  DSML_REQUIRE(fitted_, "Encoder::encode: not fitted");
  const std::size_t n = dataset.n_rows();
  const std::size_t offset = options_.add_intercept ? 1 : 0;
  linalg::Matrix x(n, features_.size() + offset);
  if (options_.add_intercept) {
    for (std::size_t r = 0; r < n; ++r) x(r, 0) = 1.0;
  }
  for (std::size_t j = 0; j < features_.size(); ++j) {
    const EncodedFeature& f = features_[j];
    DSML_REQUIRE(f.source_column < dataset.n_features(),
                 "Encoder::encode: dataset schema mismatch");
    const Column& col = dataset.feature(f.source_column);
    for (std::size_t r = 0; r < n; ++r) {
      double value;
      if (f.one_hot_level >= 0) {
        value = (col.code_at(r) == static_cast<std::size_t>(f.one_hot_level))
                    ? 1.0
                    : 0.0;
      } else {
        value = col.numeric_at(r);
        if (options_.scale_inputs) {
          value = scale01(value, f.scale_min, f.scale_max);
        }
      }
      x(r, j + offset) = value;
    }
  }
  return x;
}

std::vector<double> Encoder::encode_target(const Dataset& dataset) const {
  DSML_REQUIRE(fitted_, "Encoder::encode_target: not fitted");
  const auto t = dataset.target();
  std::vector<double> out(t.begin(), t.end());
  if (options_.scale_target) {
    for (double& v : out) v = scale01(v, target_min_, target_max_);
  }
  return out;
}

double Encoder::decode_target(double value) const {
  DSML_REQUIRE(fitted_, "Encoder::decode_target: not fitted");
  if (!options_.scale_target) return value;
  if (target_max_ <= target_min_) return target_min_;
  return target_min_ + value * (target_max_ - target_min_);
}

void Encoder::save(serial::Writer& writer) const {
  writer.tag("encoder");
  writer.boolean(fitted_);
  writer.u64(static_cast<std::uint64_t>(options_.mode));
  writer.boolean(options_.scale_inputs);
  writer.boolean(options_.scale_target);
  writer.boolean(options_.drop_constant);
  writer.boolean(options_.add_intercept);
  writer.f64(target_min_);
  writer.f64(target_max_);
  writer.u64(features_.size());
  for (const auto& f : features_) {
    writer.str(f.name);
    writer.u64(f.source_column);
    writer.i64(f.one_hot_level);
    writer.f64(f.scale_min);
    writer.f64(f.scale_max);
  }
  writer.u64(dropped_.size());
  for (const auto& d : dropped_) writer.str(d);
}

Encoder Encoder::load(serial::Reader& reader) {
  reader.expect_tag("encoder");
  Encoder enc;
  enc.fitted_ = reader.boolean();
  enc.options_.mode = static_cast<EncodingMode>(reader.u64());
  enc.options_.scale_inputs = reader.boolean();
  enc.options_.scale_target = reader.boolean();
  enc.options_.drop_constant = reader.boolean();
  enc.options_.add_intercept = reader.boolean();
  enc.target_min_ = reader.f64();
  enc.target_max_ = reader.f64();
  // Features grow as they are read: a corrupt count fails as truncation.
  const std::uint64_t n_features = reader.u64();
  for (std::uint64_t i = 0; i < n_features; ++i) {
    EncodedFeature f;
    f.name = reader.str();
    f.source_column = reader.u64();
    f.one_hot_level = static_cast<int>(reader.i64());
    f.scale_min = reader.f64();
    f.scale_max = reader.f64();
    enc.features_.push_back(std::move(f));
  }
  const std::uint64_t n_dropped = reader.u64();
  for (std::uint64_t i = 0; i < n_dropped; ++i) {
    enc.dropped_.push_back(reader.str());
  }
  return enc;
}

std::vector<std::string> Encoder::feature_names() const {
  std::vector<std::string> names;
  names.reserve(n_outputs());
  if (options_.add_intercept) names.push_back("(intercept)");
  for (const auto& f : features_) names.push_back(f.name);
  return names;
}

}  // namespace dsml::data
