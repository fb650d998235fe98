#include "data/column.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/strings.hpp"

namespace dsml::data {

const char* to_string(ColumnKind kind) noexcept {
  switch (kind) {
    case ColumnKind::kNumeric: return "numeric";
    case ColumnKind::kFlag: return "flag";
    case ColumnKind::kCategorical: return "categorical";
  }
  return "?";
}

Column Column::numeric(std::string name, std::vector<double> values) {
  Column c;
  c.name_ = std::move(name);
  c.kind_ = ColumnKind::kNumeric;
  c.num_ = std::move(values);
  return c;
}

Column Column::flag(std::string name, std::vector<bool> values) {
  Column c;
  c.name_ = std::move(name);
  c.kind_ = ColumnKind::kFlag;
  c.levels_ = {"no", "yes"};
  c.codes_.reserve(values.size());
  for (bool v : values) c.codes_.push_back(v ? 1u : 0u);
  return c;
}

Column Column::categorical(std::string name, std::vector<std::string> values,
                           bool ordered) {
  // Levels in order of first appearance.
  std::vector<std::string> levels;
  std::unordered_map<std::string, std::uint32_t> index;
  for (const auto& v : values) {
    if (index.emplace(v, static_cast<std::uint32_t>(levels.size())).second) {
      levels.push_back(v);
    }
  }
  return categorical_with_levels(std::move(name), std::move(levels),
                                 std::move(values), ordered);
}

Column Column::categorical_with_levels(std::string name,
                                       std::vector<std::string> levels,
                                       std::vector<std::string> values,
                                       bool ordered) {
  Column c;
  c.name_ = std::move(name);
  c.kind_ = ColumnKind::kCategorical;
  c.ordered_ = ordered;
  c.levels_ = std::move(levels);
  std::unordered_map<std::string, std::uint32_t> index;
  for (std::size_t i = 0; i < c.levels_.size(); ++i) {
    index.emplace(c.levels_[i], static_cast<std::uint32_t>(i));
  }
  c.codes_.reserve(values.size());
  for (const auto& v : values) {
    auto it = index.find(v);
    DSML_REQUIRE(it != index.end(),
                 "Column: value '" + v + "' not among declared levels of '" +
                     c.name_ + "'");
    c.codes_.push_back(it->second);
  }
  return c;
}

std::size_t Column::size() const noexcept {
  return kind_ == ColumnKind::kNumeric ? num_.size() : codes_.size();
}

double Column::numeric_at(std::size_t i) const {
  DSML_REQUIRE(i < size(), "Column::numeric_at: row out of range");
  if (kind_ == ColumnKind::kNumeric) return num_[i];
  return static_cast<double>(codes_[i]);
}

std::size_t Column::code_at(std::size_t i) const {
  DSML_REQUIRE(kind_ != ColumnKind::kNumeric,
               "Column::code_at: numeric column has no codes");
  DSML_REQUIRE(i < codes_.size(), "Column::code_at: row out of range");
  return codes_[i];
}

std::string Column::label_at(std::size_t i) const {
  DSML_REQUIRE(i < size(), "Column::label_at: row out of range");
  if (kind_ == ColumnKind::kNumeric) return strings::format_shortest(num_[i]);
  return levels_[codes_[i]];
}

bool Column::is_constant() const {
  if (size() <= 1) return true;
  if (kind_ == ColumnKind::kNumeric) {
    return std::all_of(num_.begin(), num_.end(),
                       [&](double v) { return v == num_.front(); });
  }
  return std::all_of(codes_.begin(), codes_.end(),
                     [&](std::uint32_t v) { return v == codes_.front(); });
}

Column Column::select(std::span<const std::size_t> rows) const {
  Column out;
  out.name_ = name_;
  out.kind_ = kind_;
  out.ordered_ = ordered_;
  out.levels_ = levels_;
  if (kind_ == ColumnKind::kNumeric) {
    out.num_.reserve(rows.size());
    for (std::size_t r : rows) {
      DSML_REQUIRE(r < num_.size(), "Column::select: row out of range");
      out.num_.push_back(num_[r]);
    }
  } else {
    out.codes_.reserve(rows.size());
    for (std::size_t r : rows) {
      DSML_REQUIRE(r < codes_.size(), "Column::select: row out of range");
      out.codes_.push_back(codes_[r]);
    }
  }
  return out;
}

void Column::append(const Column& other) {
  DSML_REQUIRE(name_ == other.name_ && kind_ == other.kind_,
               "Column::append: incompatible columns");
  DSML_REQUIRE(levels_ == other.levels_,
               "Column::append: level dictionaries differ");
  num_.insert(num_.end(), other.num_.begin(), other.num_.end());
  codes_.insert(codes_.end(), other.codes_.begin(), other.codes_.end());
}

}  // namespace dsml::data
