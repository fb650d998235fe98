#include "data/dataset.hpp"

#include "common/strings.hpp"

namespace dsml::data {

void Dataset::add_feature(Column column) {
  if (!features_.empty() || target_.has_value()) {
    check_rows(column.size());
  }
  DSML_REQUIRE(!find_feature(column.name()).has_value(),
               "Dataset: duplicate feature '" + column.name() + "'");
  features_.push_back(std::move(column));
}

void Dataset::set_target(std::string name, std::vector<double> values) {
  if (!features_.empty()) check_rows(values.size());
  target_name_ = std::move(name);
  target_ = std::move(values);
}

std::size_t Dataset::n_rows() const noexcept {
  if (!features_.empty()) return features_.front().size();
  if (target_) return target_->size();
  return 0;
}

const Column& Dataset::feature(std::size_t i) const {
  DSML_REQUIRE(i < features_.size(), "Dataset::feature: index out of range");
  return features_[i];
}

const Column& Dataset::feature(const std::string& name) const {
  auto idx = find_feature(name);
  DSML_REQUIRE(idx.has_value(), "Dataset: no feature named '" + name + "'");
  return features_[*idx];
}

std::optional<std::size_t> Dataset::find_feature(
    const std::string& name) const {
  for (std::size_t i = 0; i < features_.size(); ++i) {
    if (features_[i].name() == name) return i;
  }
  return std::nullopt;
}

const std::string& Dataset::target_name() const {
  DSML_REQUIRE(target_name_.has_value(), "Dataset: no target set");
  return *target_name_;
}

std::span<const double> Dataset::target() const {
  DSML_REQUIRE(target_.has_value(), "Dataset: no target set");
  return *target_;
}

double Dataset::target_at(std::size_t row) const {
  auto t = target();
  DSML_REQUIRE(row < t.size(), "Dataset::target_at: row out of range");
  return t[row];
}

Dataset Dataset::select_rows(std::span<const std::size_t> rows) const {
  Dataset out;
  for (const auto& col : features_) out.features_.push_back(col.select(rows));
  if (target_) {
    std::vector<double> t;
    t.reserve(rows.size());
    for (std::size_t r : rows) {
      DSML_REQUIRE(r < target_->size(), "select_rows: row out of range");
      t.push_back((*target_)[r]);
    }
    out.target_name_ = target_name_;
    out.target_ = std::move(t);
  }
  return out;
}

void Dataset::append(const Dataset& other) {
  DSML_REQUIRE(features_.size() == other.features_.size(),
               "Dataset::append: schema mismatch");
  DSML_REQUIRE(target_.has_value() == other.target_.has_value(),
               "Dataset::append: target mismatch");
  for (std::size_t i = 0; i < features_.size(); ++i) {
    features_[i].append(other.features_[i]);
  }
  if (target_) {
    target_->insert(target_->end(), other.target_->begin(),
                    other.target_->end());
  }
}

csv::Table Dataset::to_csv() const {
  csv::Table table;
  for (const auto& col : features_) table.header.push_back(col.name());
  if (target_) table.header.push_back(*target_name_);
  const std::size_t n = n_rows();
  table.rows.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<std::string> row;
    row.reserve(table.header.size());
    for (const auto& col : features_) row.push_back(col.label_at(r));
    if (target_) row.push_back(strings::format_shortest((*target_)[r]));
    table.rows.push_back(std::move(row));
  }
  return table;
}

void Dataset::check_rows(std::size_t n) const {
  DSML_REQUIRE(n == n_rows(),
               "Dataset: row count mismatch (have " +
                   std::to_string(n_rows()) + ", got " + std::to_string(n) +
                   ")");
}

}  // namespace dsml::data
