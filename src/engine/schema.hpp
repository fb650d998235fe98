// Dataset schemas as first-class, fingerprintable values.
//
// A fitted Regressor is only meaningful against the column layout it was
// trained on: the Encoder resolves features by position, so handing a model
// a dataset with reordered / retyped columns silently produces garbage
// predictions rather than an error. The engine therefore captures the
// training schema (name, kind, ordered-ness, and level dictionary per
// column) next to every registered model and checks a 64-bit FNV-1a
// fingerprint before any request reaches the model.
//
// Schema also owns the inverse direction: building a typed Dataset from
// external rows (CSV files handed to `dsml predict --csv`, JSON objects
// handed to `dsml serve`), validating every cell against the column's
// declared kind and levels so malformed requests fail with a taxonomy error
// instead of corrupting a batch. JSON rows decode straight into typed
// columns; only CSV cells go through text.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/csv.hpp"
#include "common/json.hpp"
#include "data/dataset.hpp"

namespace dsml::engine {

/// One feature column's contract: everything the Encoder's behaviour depends
/// on, and nothing it does not (values are data, not schema).
struct SchemaColumn {
  std::string name;
  data::ColumnKind kind = data::ColumnKind::kNumeric;
  bool ordered = false;                  ///< categorical ordinal-eligibility
  std::vector<std::string> levels;       ///< categorical level dictionary
};

class Schema {
 public:
  Schema() = default;

  /// Captures the feature schema of a dataset (the target is deliberately
  /// excluded: prediction-time datasets have none).
  static Schema of(const data::Dataset& dataset);

  /// Rebuilds a schema from explicit column contracts — the deserialization
  /// path for schemas shipped inside registry snapshots.
  static Schema from_columns(std::vector<SchemaColumn> columns);

  const std::vector<SchemaColumn>& columns() const noexcept {
    return columns_;
  }
  std::size_t size() const noexcept { return columns_.size(); }

  /// 64-bit FNV-1a over every column's name, kind, ordered flag, and level
  /// dictionary. Equal fingerprints ⇒ the Encoder treats the datasets
  /// identically.
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  /// True when `dataset`'s feature columns match this schema exactly.
  bool matches(const data::Dataset& dataset) const;

  /// Human-readable mismatch diagnosis ("column 3: expected l2_size_kb
  /// [numeric], got l2_assoc [numeric]"); "" when the dataset matches.
  std::string mismatch(const data::Dataset& dataset) const;

  /// Short description for logs: "24 columns, fingerprint 0x...".
  std::string describe() const;

  /// One synthetic row obeying the schema (numerics 0, flags false, first
  /// level for categoricals). The registry probes candidate models with it.
  data::Dataset probe_row() const;

  /// Builds a dataset from string cells in schema column order (rows[i][j]
  /// is column j of row i). Numeric cells must parse as doubles, flag cells
  /// as 0/1/true/false/yes/no, categorical cells must name a known level.
  /// Throws InvalidArgument with row/column context otherwise.
  data::Dataset dataset_from_rows(
      const std::vector<std::vector<std::string>>& rows) const;

  /// Builds a dataset from serve-protocol rows: JSON objects keyed by column
  /// name, in any key order. Each row's fields are walked once against the
  /// schema's name index. Checked per row, in order: the row is an object,
  /// every key names a column, then (in column order) each column is
  /// present and its value has the right type: a number for numerics, a
  /// bool or number (non-zero is true) for flags, a string for
  /// categoricals. A duplicate key keeps its first value. Categorical
  /// labels are trimmed and resolved against the levels only after every
  /// row passed those checks. Throws InvalidArgument naming the row and
  /// column, or the IoError of the JSON accessor on a type mismatch.
  data::Dataset dataset_from_json_rows(
      const std::vector<json::Value>& rows) const;

  /// Maps a CSV table onto the schema by header name (column order in the
  /// file is free; extra columns — including a target — are ignored).
  /// Throws InvalidArgument when a schema column is missing from the header.
  data::Dataset dataset_from_csv(const csv::Table& table) const;

 private:
  /// Recomputes what is derived from `columns_`: the fingerprint and the
  /// name index.
  void derive();

  std::vector<SchemaColumn> columns_;
  std::uint64_t fingerprint_ = 0;
  /// Column name → position in `columns_`. Owns its keys, so copying a
  /// Schema (every ModelEntry holds one) never leaves it pointing into
  /// another object's columns. Names are unique in any schema a model can
  /// be registered with: a Dataset rejects repeated feature names.
  std::unordered_map<std::string, std::size_t> positions_;
};

}  // namespace dsml::engine
