#include "engine/schema.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace dsml::engine {

namespace {

/// FNV-1a, folding a length prefix before each string so {"ab","c"} and
/// {"a","bc"} hash differently.
void fnv_mix(std::uint64_t& h, std::string_view s) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  const std::size_t n = s.size();
  for (std::size_t shift = 0; shift < 64; shift += 8) {
    h ^= static_cast<std::uint64_t>((n >> shift) & 0xFF);
    h *= kPrime;
  }
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kPrime;
  }
}

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  for (std::size_t shift = 0; shift < 64; shift += 8) {
    h ^= (v >> shift) & 0xFF;
    h *= kPrime;
  }
}

std::string column_signature(const SchemaColumn& c) {
  std::string sig = c.name;
  sig += " [";
  sig += data::to_string(c.kind);
  if (c.ordered) sig += ", ordered";
  sig += "]";
  return sig;
}

bool parse_flag_cell(const std::string& raw, const SchemaColumn& column,
                     std::size_t row) {
  const std::string v = strings::to_lower(strings::trim(raw));
  if (v == "1" || v == "true" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "no") return false;
  throw InvalidArgument("row " + std::to_string(row) + ", column '" +
                        column.name + "': expected a flag (0/1/true/false), " +
                        "got '" + raw + "'");
}

/// One column's decoded values; only the vector of the column's kind is
/// used.
struct ColumnValues {
  ColumnValues(data::ColumnKind kind, std::size_t rows) {
    switch (kind) {
      case data::ColumnKind::kNumeric: numbers.reserve(rows); break;
      case data::ColumnKind::kFlag: flags.reserve(rows); break;
      case data::ColumnKind::kCategorical: labels.reserve(rows); break;
    }
  }

  std::vector<double> numbers;
  std::vector<bool> flags;
  std::vector<std::string> labels;  ///< trimmed categorical labels
};

/// The tail both decoders share: appends `values` to `out` as `column`,
/// resolving categorical labels against the declared levels.
void add_column(data::Dataset& out, const SchemaColumn& column,
                ColumnValues values) {
  switch (column.kind) {
    case data::ColumnKind::kNumeric:
      out.add_feature(
          data::Column::numeric(column.name, std::move(values.numbers)));
      return;
    case data::ColumnKind::kFlag:
      out.add_feature(data::Column::flag(column.name, std::move(values.flags)));
      return;
    case data::ColumnKind::kCategorical:
      try {
        out.add_feature(data::Column::categorical_with_levels(
            column.name, column.levels, std::move(values.labels),
            column.ordered));
      } catch (const InvalidArgument& e) {
        throw InvalidArgument("column '" + column.name + "': " + e.what() +
                              " (known levels: " +
                              strings::join(column.levels, ", ") + ")");
      }
      return;
  }
}

}  // namespace

Schema Schema::of(const data::Dataset& dataset) {
  Schema schema;
  schema.columns_.reserve(dataset.n_features());
  for (std::size_t i = 0; i < dataset.n_features(); ++i) {
    const data::Column& col = dataset.feature(i);
    schema.columns_.push_back(
        SchemaColumn{col.name(), col.kind(), col.ordered(), col.levels()});
  }
  schema.derive();
  return schema;
}

Schema Schema::from_columns(std::vector<SchemaColumn> columns) {
  Schema schema;
  schema.columns_ = std::move(columns);
  schema.derive();
  return schema;
}

void Schema::derive() {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  fnv_mix(h, static_cast<std::uint64_t>(columns_.size()));
  for (const SchemaColumn& c : columns_) {
    fnv_mix(h, c.name);
    fnv_mix(h, static_cast<std::uint64_t>(c.kind));
    fnv_mix(h, static_cast<std::uint64_t>(c.ordered ? 1 : 0));
    fnv_mix(h, static_cast<std::uint64_t>(c.levels.size()));
    for (const std::string& level : c.levels) fnv_mix(h, level);
  }
  fingerprint_ = h;
  positions_.clear();
  positions_.reserve(columns_.size());
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    positions_.try_emplace(columns_[i].name, i);
  }
}

bool Schema::matches(const data::Dataset& dataset) const {
  return mismatch(dataset).empty();
}

std::string Schema::mismatch(const data::Dataset& dataset) const {
  if (dataset.n_features() != columns_.size()) {
    return "expected " + std::to_string(columns_.size()) +
           " feature columns, got " + std::to_string(dataset.n_features());
  }
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    const SchemaColumn& want = columns_[i];
    const data::Column& got = dataset.feature(i);
    if (got.name() != want.name || got.kind() != want.kind ||
        got.ordered() != want.ordered || got.levels() != want.levels) {
      const SchemaColumn got_desc{got.name(), got.kind(), got.ordered(),
                                  got.levels()};
      return "column " + std::to_string(i) + ": expected " +
             column_signature(want) + ", got " + column_signature(got_desc);
    }
  }
  return "";
}

std::string Schema::describe() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(fingerprint_));
  return std::to_string(columns_.size()) + " columns, fingerprint " + buf;
}

data::Dataset Schema::probe_row() const {
  std::vector<std::vector<std::string>> row(1);
  row[0].reserve(columns_.size());
  for (const SchemaColumn& c : columns_) {
    switch (c.kind) {
      case data::ColumnKind::kNumeric:
        row[0].push_back("0");
        break;
      case data::ColumnKind::kFlag:
        row[0].push_back("0");
        break;
      case data::ColumnKind::kCategorical:
        DSML_ASSERT(!c.levels.empty());
        row[0].push_back(c.levels.front());
        break;
    }
  }
  return dataset_from_rows(row);
}

data::Dataset Schema::dataset_from_rows(
    const std::vector<std::vector<std::string>>& rows) const {
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != columns_.size()) {
      throw InvalidArgument("row " + std::to_string(r) + ": expected " +
                            std::to_string(columns_.size()) + " cells, got " +
                            std::to_string(rows[r].size()));
    }
  }
  data::Dataset out;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    const SchemaColumn& column = columns_[c];
    ColumnValues values(column.kind, rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::string& cell = rows[r][c];
      switch (column.kind) {
        case data::ColumnKind::kNumeric:
          try {
            values.numbers.push_back(strings::parse_double(cell));
          } catch (const IoError&) {
            throw InvalidArgument("row " + std::to_string(r) + ", column '" +
                                  column.name + "': expected a number, got '" +
                                  cell + "'");
          }
          break;
        case data::ColumnKind::kFlag:
          values.flags.push_back(parse_flag_cell(cell, column, r));
          break;
        case data::ColumnKind::kCategorical:
          values.labels.emplace_back(strings::trim(cell));
          break;
      }
    }
    add_column(out, column, std::move(values));
  }
  return out;
}

data::Dataset Schema::dataset_from_json_rows(
    const std::vector<json::Value>& rows) const {
  std::vector<ColumnValues> values;
  values.reserve(columns_.size());
  for (const SchemaColumn& column : columns_) {
    values.emplace_back(column.kind, rows.size());
  }
  std::vector<const json::Value*> cells(columns_.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const json::Value& row = rows[r];
    if (row.type() != json::Value::Type::kObject) {
      throw InvalidArgument("row " + std::to_string(r) +
                            " must be a JSON object keyed by column name");
    }
    std::fill(cells.begin(), cells.end(), nullptr);
    for (const auto& [key, value] : row.fields()) {
      const auto it = positions_.find(key);
      if (it == positions_.end()) {
        throw InvalidArgument("row " + std::to_string(r) +
                              " has unknown column '" + key + "'");
      }
      if (cells[it->second] == nullptr) cells[it->second] = &value;
    }
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      const SchemaColumn& column = columns_[c];
      if (cells[c] == nullptr) {
        throw InvalidArgument("row " + std::to_string(r) +
                              " is missing column '" + column.name + "'");
      }
      const json::Value& v = *cells[c];
      switch (column.kind) {
        case data::ColumnKind::kNumeric:
          values[c].numbers.push_back(v.as_number());
          break;
        case data::ColumnKind::kFlag:
          values[c].flags.push_back(v.type() == json::Value::Type::kBool
                                        ? v.as_bool()
                                        : v.as_number() != 0.0);
          break;
        case data::ColumnKind::kCategorical:
          values[c].labels.emplace_back(strings::trim(v.as_string()));
          break;
      }
    }
  }
  data::Dataset out;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    add_column(out, columns_[c], std::move(values[c]));
  }
  return out;
}

data::Dataset Schema::dataset_from_csv(const csv::Table& table) const {
  std::vector<std::size_t> source(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    bool found = false;
    for (std::size_t h = 0; h < table.header.size(); ++h) {
      if (table.header[h] == columns_[c].name) {
        source[c] = h;
        found = true;
        break;
      }
    }
    if (!found) {
      throw InvalidArgument("csv is missing schema column '" +
                            columns_[c].name + "'");
    }
  }
  std::vector<std::vector<std::string>> rows;
  rows.reserve(table.rows.size());
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    if (table.rows[r].size() != table.header.size()) {
      throw InvalidArgument("csv row " + std::to_string(r) + " has " +
                            std::to_string(table.rows[r].size()) +
                            " cells for a " +
                            std::to_string(table.header.size()) +
                            "-column header");
    }
    std::vector<std::string> cells;
    cells.reserve(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      cells.push_back(table.rows[r][source[c]]);
    }
    rows.push_back(std::move(cells));
  }
  return dataset_from_rows(rows);
}

}  // namespace dsml::engine
