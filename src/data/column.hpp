// Typed data columns.
//
// The paper's inputs mix numeric fields (cache sizes, clock speed), flags
// (SMT yes/no, issue-wrong), and categorical fields (branch predictor kind,
// processor model). Clementine treats these differently per model family —
// linear regression needs numerics (ordinal-mappable categoricals are mapped,
// others omitted) while neural networks accept everything via automatic
// transformation. Column captures the type so the Encoder can reproduce
// those behaviours.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace dsml::data {

enum class ColumnKind : std::uint8_t { kNumeric, kFlag, kCategorical };

const char* to_string(ColumnKind kind) noexcept;

class Column {
 public:
  /// Numeric column from raw values.
  static Column numeric(std::string name, std::vector<double> values);

  /// Boolean flag column.
  static Column flag(std::string name, std::vector<bool> values);

  /// Categorical column from string labels. `ordered` marks categoricals
  /// whose level order is meaningful (e.g. predictor sophistication), which
  /// makes them eligible for ordinal mapping in linear models.
  static Column categorical(std::string name, std::vector<std::string> values,
                            bool ordered = false);

  /// Categorical column with an explicit level order; every value must be
  /// one of the given levels.
  static Column categorical_with_levels(std::string name,
                                        std::vector<std::string> levels,
                                        std::vector<std::string> values,
                                        bool ordered = false);

  const std::string& name() const noexcept { return name_; }
  ColumnKind kind() const noexcept { return kind_; }
  bool ordered() const noexcept { return ordered_; }
  std::size_t size() const noexcept;

  /// Numeric view. Numeric columns return their value; flags return 0/1;
  /// categorical columns return the level code (ordinal position).
  double numeric_at(std::size_t i) const;

  /// Level code of a categorical/flag entry.
  std::size_t code_at(std::size_t i) const;

  /// String label of entry i; a numeric one in its shortest round-trip
  /// form (strings::format_shortest).
  std::string label_at(std::size_t i) const;

  /// Categorical levels (empty for numeric columns).
  const std::vector<std::string>& levels() const noexcept { return levels_; }
  std::size_t level_count() const noexcept { return levels_.size(); }

  /// True if every entry holds the same value.
  bool is_constant() const;

  /// Subset of rows, in the given order.
  Column select(std::span<const std::size_t> rows) const;

  /// Concatenate rows of another column with identical name/kind/levels.
  void append(const Column& other);

 private:
  Column() = default;

  std::string name_;
  ColumnKind kind_ = ColumnKind::kNumeric;
  bool ordered_ = false;
  std::vector<double> num_;         // numeric payload
  std::vector<std::uint32_t> codes_; // flag/categorical payload
  std::vector<std::string> levels_;  // categorical level dictionary
};

}  // namespace dsml::data
