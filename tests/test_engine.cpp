// Engine-layer tests: schema fingerprints, JSON row decoding (differential
// against the old text route), the model registry, inference sessions
// (including the bit-identity determinism contract and concurrent
// access under DSML_THREADS=4 — this suite carries the tsan
// label), fit_and_score failure capture, the design-space cold-start
// cache, and the serve goldens.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <typeinfo>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "data/column.hpp"
#include "data/dataset.hpp"
#include "engine/design_space.hpp"
#include "ml/fit_score.hpp"
#include "engine/registry.hpp"
#include "engine/schema.hpp"
#include "engine/serve.hpp"
#include "engine/session.hpp"
#include "ml/model_zoo.hpp"

namespace dsml::engine {
namespace {

// A tiny mixed-kind training set (numeric + flag + ordered categorical) so
// fits stay instant while still exercising the full Encoder path.
data::Dataset make_train(std::size_t n) {
  std::vector<double> size_kb, latency, target;
  std::vector<bool> wide;
  std::vector<std::string> predictor;
  const std::vector<std::string> levels = {"weak", "medium", "strong"};
  for (std::size_t i = 0; i < n; ++i) {
    const double s = static_cast<double>(8 << (i % 4));
    const double l = 1.0 + static_cast<double>(i % 5);
    const bool w = (i % 2) == 0;
    const std::size_t p = i % levels.size();
    size_kb.push_back(s);
    latency.push_back(l);
    wide.push_back(w);
    predictor.push_back(levels[p]);
    target.push_back(1000.0 - 3.0 * s + 40.0 * l - (w ? 25.0 : 0.0) -
                     10.0 * static_cast<double>(p));
  }
  data::Dataset d;
  d.add_feature(data::Column::numeric("size_kb", std::move(size_kb)));
  d.add_feature(data::Column::numeric("latency", std::move(latency)));
  d.add_feature(data::Column::flag("wide", std::move(wide)));
  d.add_feature(data::Column::categorical_with_levels(
      "predictor", levels, std::move(predictor), /*ordered=*/true));
  d.set_target("cycles", std::move(target));
  return d;
}

std::shared_ptr<const ml::Regressor> fit_model(const data::Dataset& train,
                                               const std::string& name) {
  std::unique_ptr<ml::Regressor> model = ml::make_model(name).make();
  model->fit(train);
  return std::shared_ptr<const ml::Regressor>(std::move(model));
}

// ---------------------------------------------------------------- schema --

TEST(Schema, FingerprintIsStableAndOrderSensitive) {
  const data::Dataset train = make_train(24);
  const Schema a = Schema::of(train);
  const Schema b = Schema::of(make_train(12));  // same layout, other rows
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.size(), 4u);
  EXPECT_TRUE(a.matches(train));
  EXPECT_EQ(a.mismatch(train), "");

  data::Dataset reordered;
  reordered.add_feature(data::Column::numeric("latency", {1.0}));
  reordered.add_feature(data::Column::numeric("size_kb", {8.0}));
  reordered.add_feature(data::Column::flag("wide", {true}));
  reordered.add_feature(data::Column::categorical_with_levels(
      "predictor", {"weak", "medium", "strong"}, {"weak"}, true));
  EXPECT_FALSE(a.matches(reordered));
  EXPECT_NE(a.mismatch(reordered), "");
  EXPECT_NE(a.fingerprint(), Schema::of(reordered).fingerprint());
}

TEST(Schema, ProbeRowMatchesSchema) {
  const Schema schema = Schema::of(make_train(6));
  const data::Dataset probe = schema.probe_row();
  EXPECT_EQ(probe.n_rows(), 1u);
  EXPECT_TRUE(schema.matches(probe));
}

TEST(Schema, DatasetFromRowsValidatesCells) {
  const Schema schema = Schema::of(make_train(6));
  const data::Dataset good = schema.dataset_from_rows(
      {{"16", "2.5", "true", "medium"}, {"8", "1", "0", "weak"}});
  EXPECT_EQ(good.n_rows(), 2u);
  EXPECT_TRUE(schema.matches(good));
  EXPECT_DOUBLE_EQ(good.feature("latency").numeric_at(0), 2.5);
  EXPECT_EQ(good.feature("predictor").label_at(1), "weak");

  EXPECT_THROW(schema.dataset_from_rows({{"oops", "1", "0", "weak"}}),
               InvalidArgument);
  EXPECT_THROW(schema.dataset_from_rows({{"1", "1", "maybe", "weak"}}),
               InvalidArgument);
  EXPECT_THROW(schema.dataset_from_rows({{"1", "1", "0", "heroic"}}),
               InvalidArgument);
  EXPECT_THROW(schema.dataset_from_rows({{"1", "1", "0"}}), InvalidArgument);
}

// ------------------------------------------------------ JSON row decoding --

// The route serve rows took before they decoded straight into typed columns:
// each cell formatted to text, then parsed back into columns. Both halves
// are copied here as they were (the handler's row_cells and the string
// route of Schema::dataset_from_rows), so the reference the typed decode
// must reproduce, results and errors alike, does not move with the code
// under test.
std::string text_route_numeric_cell(const json::Value& v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v.as_number());
  return buf;
}

std::vector<std::string> text_route_row_cells(
    const json::Value& row, const Schema& schema,
    const std::unordered_set<std::string_view>& known_columns,
    std::size_t index) {
  if (row.type() != json::Value::Type::kObject) {
    throw InvalidArgument("row " + std::to_string(index) +
                          " must be a JSON object keyed by column name");
  }
  for (const auto& [key, value] : row.fields()) {
    if (known_columns.count(key) == 0) {
      throw InvalidArgument("row " + std::to_string(index) +
                            " has unknown column '" + key + "'");
    }
  }
  std::vector<std::string> cells;
  cells.reserve(schema.size());
  for (const SchemaColumn& c : schema.columns()) {
    if (!row.contains(c.name)) {
      throw InvalidArgument("row " + std::to_string(index) +
                            " is missing column '" + c.name + "'");
    }
    const json::Value& v = row.at(c.name);
    switch (c.kind) {
      case data::ColumnKind::kNumeric:
        cells.push_back(text_route_numeric_cell(v));
        break;
      case data::ColumnKind::kFlag:
        if (v.type() == json::Value::Type::kBool) {
          cells.push_back(v.as_bool() ? "1" : "0");
        } else {
          cells.push_back(v.as_number() != 0.0 ? "1" : "0");
        }
        break;
      case data::ColumnKind::kCategorical:
        cells.push_back(v.as_string());
        break;
    }
  }
  return cells;
}

bool text_route_flag_cell(const std::string& raw, const SchemaColumn& column,
                          std::size_t row) {
  const std::string v = strings::to_lower(strings::trim(raw));
  if (v == "1" || v == "true" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "no") return false;
  throw InvalidArgument("row " + std::to_string(row) + ", column '" +
                        column.name + "': expected a flag (0/1/true/false), " +
                        "got '" + raw + "'");
}

data::Dataset text_route_dataset(
    const Schema& schema, const std::vector<std::vector<std::string>>& rows) {
  const std::vector<SchemaColumn>& columns = schema.columns();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != columns.size()) {
      throw InvalidArgument("row " + std::to_string(r) + ": expected " +
                            std::to_string(columns.size()) + " cells, got " +
                            std::to_string(rows[r].size()));
    }
  }
  data::Dataset out;
  for (std::size_t c = 0; c < columns.size(); ++c) {
    const SchemaColumn& column = columns[c];
    switch (column.kind) {
      case data::ColumnKind::kNumeric: {
        std::vector<double> values;
        for (std::size_t r = 0; r < rows.size(); ++r) {
          try {
            values.push_back(strings::parse_double(rows[r][c]));
          } catch (const IoError&) {
            throw InvalidArgument("row " + std::to_string(r) + ", column '" +
                                  column.name + "': expected a number, got '" +
                                  rows[r][c] + "'");
          }
        }
        out.add_feature(data::Column::numeric(column.name, std::move(values)));
        break;
      }
      case data::ColumnKind::kFlag: {
        std::vector<bool> values;
        for (std::size_t r = 0; r < rows.size(); ++r) {
          values.push_back(text_route_flag_cell(rows[r][c], column, r));
        }
        out.add_feature(data::Column::flag(column.name, std::move(values)));
        break;
      }
      case data::ColumnKind::kCategorical: {
        std::vector<std::string> values;
        for (std::size_t r = 0; r < rows.size(); ++r) {
          values.push_back(std::string(strings::trim(rows[r][c])));
        }
        try {
          out.add_feature(data::Column::categorical_with_levels(
              column.name, column.levels, std::move(values), column.ordered));
        } catch (const InvalidArgument& e) {
          throw InvalidArgument("column '" + column.name +
                                "': " + e.what() + " (known levels: " +
                                strings::join(column.levels, ", ") + ")");
        }
        break;
      }
    }
  }
  return out;
}

data::Dataset text_route_decode(const Schema& schema,
                                const std::vector<json::Value>& rows) {
  std::unordered_set<std::string_view> known_columns;
  for (const SchemaColumn& c : schema.columns()) known_columns.insert(c.name);
  std::vector<std::vector<std::string>> cells;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    cells.push_back(text_route_row_cells(rows[r], schema, known_columns, r));
  }
  return text_route_dataset(schema, cells);
}

/// A decode's result: the dataset, or the exception's type and message.
struct Decoded {
  std::optional<data::Dataset> dataset;
  std::string error_type;
  std::string message;
};

template <typename Decode>
Decoded decode_with(Decode&& decode) {
  Decoded out;
  try {
    out.dataset = decode();
  } catch (const std::exception& e) {
    out.error_type = typeid(e).name();
    out.message = e.what();
  }
  return out;
}

/// "" when the datasets are equal (numerics bit for bit), else the first
/// difference.
std::string dataset_difference(const data::Dataset& a,
                               const data::Dataset& b) {
  if (a.n_features() != b.n_features() || a.n_rows() != b.n_rows()) {
    return "shape";
  }
  for (std::size_t i = 0; i < a.n_features(); ++i) {
    const data::Column& x = a.feature(i);
    const data::Column& y = b.feature(i);
    if (x.name() != y.name() || x.kind() != y.kind() ||
        x.ordered() != y.ordered() || x.levels() != y.levels()) {
      return "column " + std::to_string(i) + " contract";
    }
    for (std::size_t r = 0; r < a.n_rows(); ++r) {
      const bool same =
          x.kind() == data::ColumnKind::kNumeric
              ? std::bit_cast<std::uint64_t>(x.numeric_at(r)) ==
                    std::bit_cast<std::uint64_t>(y.numeric_at(r))
              : x.code_at(r) == y.code_at(r);
      if (!same) {
        return "column " + std::to_string(i) + " row " + std::to_string(r);
      }
    }
  }
  return "";
}

/// Serve row sets for a schema as JSON text: mostly well-formed rows, each
/// with a chance of one mutation the two decode routes must treat alike.
class RowMutator {
 public:
  RowMutator(const Schema& schema, std::uint64_t seed)
      : schema_(schema), rng_(seed) {}

  std::string row_set() {
    std::string out = "[";
    const std::size_t n = rng_.below(5);
    for (std::size_t r = 0; r < n; ++r) {
      if (r > 0) out += ",";
      out += row();
    }
    return out + "]";
  }

 private:
  bool chance(double p) { return rng_.uniform() < p; }

  std::string pick(const std::vector<std::string>& options) {
    return options[rng_.below(options.size())];
  }

  std::string number() {
    if (chance(0.4)) return std::to_string(rng_.below(4097));
    if (chance(0.5)) {
      double v = std::bit_cast<double>(rng_());
      if (!std::isfinite(v)) v = 0.5;
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      return buf;
    }
    return pick({"-0", "+5", ".5", "5.", "0.1", "1e999", "-1e999", "1e-400",
                 "4.9406564584124654e-324", "2.2250738585072009e-308",
                 "1.7976931348623157e308", "123456789012345678901234567890",
                 "\"NaN\"", "\"Infinity\"", "\"-Infinity\""});
  }

  std::string level(const SchemaColumn& c) {
    const std::string& name = c.levels[rng_.below(c.levels.size())];
    if (!chance(0.15)) return "\"" + name + "\"";
    return pick({"\" " + name + " \"", "\"\\t" + name + "\\n\"",
                 "\"" + name + " \""});
  }

  std::string good_value(const SchemaColumn& c) {
    switch (c.kind) {
      case data::ColumnKind::kNumeric:
        return number();
      case data::ColumnKind::kFlag:
        return pick({"true", "false", "0", "1", "2", "-0", "0.5", "\"NaN\"",
                     "1e-400", "-1e999"});
      case data::ColumnKind::kCategorical:
        return level(c);
    }
    return "null";
  }

  std::string bad_value(const SchemaColumn& c) {
    std::vector<std::string> options = {"null", "[1]", "{}", "{\"a\":1}"};
    switch (c.kind) {
      case data::ColumnKind::kNumeric:
        options.insert(options.end(), {"\"16\"", "true", "false", "\"\""});
        break;
      case data::ColumnKind::kFlag:
        options.insert(options.end(), {"\"true\"", "\"1\"", "\"\""});
        break;
      case data::ColumnKind::kCategorical: {
        std::string upper = c.levels.front();
        std::transform(upper.begin(), upper.end(), upper.begin(),
                       [](unsigned char ch) { return std::toupper(ch); });
        options.insert(options.end(),
                       {"7", "true", "\"NaN\"", "\"\"", "\"w\"",
                        "\"" + upper + "\"", "\"x y\""});
        break;
      }
    }
    return pick(options);
  }

  std::string row() {
    if (chance(0.03)) return pick({"7", "\"row\"", "[1,2]", "null", "true"});
    const std::vector<SchemaColumn>& columns = schema_.columns();
    std::vector<std::pair<std::string, std::string>> fields;
    for (const SchemaColumn& c : columns) {
      fields.emplace_back(c.name, good_value(c));
    }
    if (chance(0.2)) {
      const std::size_t c = rng_.below(columns.size());
      fields[c].second = bad_value(columns[c]);
    }
    if (chance(0.1)) {
      const std::size_t c = rng_.below(columns.size());
      if (columns[c].kind == data::ColumnKind::kCategorical) {
        fields[c].second = pick({"\"w\"", "\"\"", "\"x y\""});
      }
    }
    if (chance(0.15)) {
      const std::size_t c = rng_.below(columns.size());
      const std::string value = chance(0.5) ? good_value(columns[c])
                                            : bad_value(columns[c]);
      fields.insert(fields.begin() + static_cast<std::ptrdiff_t>(
                                         rng_.below(fields.size() + 1)),
                    {columns[c].name, value});
    }
    if (chance(0.08)) {
      fields.erase(fields.begin() +
                   static_cast<std::ptrdiff_t>(rng_.below(fields.size())));
    }
    if (chance(0.06)) {
      const std::string& name = columns[rng_.below(columns.size())].name;
      fields.insert(fields.begin() + static_cast<std::ptrdiff_t>(
                                         rng_.below(fields.size() + 1)),
                    {pick({"bogus", "", name + " ", "_" + name}), "1"});
    }
    if (chance(0.5)) {
      for (std::size_t i = fields.size(); i > 1; --i) {
        std::swap(fields[i - 1], fields[rng_.below(i)]);
      }
    }
    std::string out = "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + fields[i].first + "\":" + fields[i].second;
    }
    return out + "}";
  }

  const Schema& schema_;
  Rng rng_;
};

/// Two categoricals and two flags, so level-error precedence across
/// columns is exercised too.
Schema mixed_schema() {
  return Schema::from_columns({
      {"size_kb", data::ColumnKind::kNumeric, false, {}},
      {"predictor", data::ColumnKind::kCategorical, true,
       {"weak", "medium", "strong"}},
      {"wide", data::ColumnKind::kFlag, false, {}},
      {"latency", data::ColumnKind::kNumeric, false, {}},
      {"policy", data::ColumnKind::kCategorical, false, {"lru", "random"}},
      {"smt", data::ColumnKind::kFlag, false, {}},
  });
}

TEST(Schema, JsonRowDecodeMatchesTextRoute) {
  const std::vector<std::pair<Schema, std::uint64_t>> cases = {
      {design_space_schema(), 11}, {mixed_schema(), 12}};
  std::size_t decoded = 0, failed = 0, level_errors = 0;
  for (const auto& [schema, seed] : cases) {
    RowMutator mutator(schema, seed);
    for (int i = 0; i < 2000; ++i) {
      const std::string text = mutator.row_set();
      const json::Value rows = json::Value::parse(text);
      const Decoded typed = decode_with(
          [&] { return schema.dataset_from_json_rows(rows.items()); });
      const Decoded reference =
          decode_with([&] { return text_route_decode(schema, rows.items()); });
      ASSERT_EQ(typed.dataset.has_value(), reference.dataset.has_value())
          << text << "\ntyped: " << typed.message
          << "\ntext route: " << reference.message;
      if (typed.dataset) {
        ASSERT_EQ(dataset_difference(*typed.dataset, *reference.dataset), "")
            << text;
        ++decoded;
      } else {
        ASSERT_EQ(typed.error_type, reference.error_type) << text;
        ASSERT_EQ(typed.message, reference.message) << text;
        ++failed;
        if (typed.message.find("declared levels") != std::string::npos) {
          ++level_errors;
        }
      }
    }
  }
  // Both outcomes must be well represented, or the comparison says little.
  EXPECT_GT(decoded, 400u) << failed << " failed";
  EXPECT_GT(failed, 400u) << decoded << " decoded";
  EXPECT_GT(level_errors, 50u);
}

TEST(Schema, JsonRowsDecodeIntoTypedColumns) {
  const Schema schema = Schema::of(make_train(6));
  const json::Value rows = json::Value::parse(
      R"([{"predictor": " strong ", "wide": 2, "latency": -0, "size_kb": 16},
          {"size_kb": 8, "latency": 1.5, "wide": false, "predictor": "weak",
           "size_kb": "ignored: a duplicate keeps its first value"}])");
  const data::Dataset d = schema.dataset_from_json_rows(rows.items());
  ASSERT_EQ(d.n_rows(), 2u);
  EXPECT_TRUE(schema.matches(d));
  EXPECT_EQ(d.feature("size_kb").numeric_at(1), 8.0);
  EXPECT_TRUE(std::signbit(d.feature("latency").numeric_at(0)));
  EXPECT_EQ(d.feature("wide").code_at(0), 1u);
  EXPECT_EQ(d.feature("predictor").label_at(0), "strong");

  // A structural error in row 1 is reported before a bad level in row 0.
  const json::Value bad = json::Value::parse(
      R"([{"size_kb": 1, "latency": 1, "wide": 0, "predictor": "heroic"},
          {"size_kb": 1, "latency": 1, "wide": 0}])");
  try {
    schema.dataset_from_json_rows(bad.items());
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "row 1 is missing column 'predictor'");
  }
}

// A copied schema keeps its own name index: the copy must decode after the
// original is gone.
TEST(Schema, CopiedSchemaDecodesAfterOriginalIsDestroyed) {
  std::optional<Schema> original = Schema::of(make_train(6));
  const Schema copy = *original;
  original.reset();
  const json::Value rows = json::Value::parse(
      R"([{"size_kb": 16, "latency": 2, "wide": true, "predictor": "weak"}])");
  EXPECT_EQ(copy.dataset_from_json_rows(rows.items()).n_rows(), 1u);
}

// -------------------------------------------------------------- registry --

TEST(Registry, RegisterLookupAndReloadVersioning) {
  const data::Dataset train = make_train(24);
  const Schema schema = Schema::of(train);
  ModelRegistry registry;
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.find("gcc"), nullptr);
  EXPECT_THROW(registry.get("gcc"), StateError);

  EXPECT_EQ(registry.register_model("gcc", fit_model(train, "LR-B"), schema,
                                    "test"),
            1u);
  const auto first = registry.get("gcc");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->version, 1u);
  EXPECT_EQ(first->source, "test");
  EXPECT_EQ(first->schema.fingerprint(), schema.fingerprint());

  // Re-registering swaps the snapshot and bumps the version; the handed-out
  // entry is immutable and keeps working.
  EXPECT_EQ(registry.register_model("gcc", fit_model(train, "LR-E"), schema),
            2u);
  EXPECT_EQ(registry.get("gcc")->version, 2u);
  EXPECT_EQ(first->version, 1u);
  EXPECT_EQ(first->model->predict(train).size(), train.n_rows());

  registry.register_model("mcf", fit_model(train, "LR-B"), schema);
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"gcc", "mcf"}));
  EXPECT_EQ(registry.size(), 2u);
  registry.clear();
  EXPECT_EQ(registry.size(), 0u);
}

TEST(Registry, RejectsUnfittedAndSchemaMismatchedModels) {
  const data::Dataset train = make_train(24);
  const Schema schema = Schema::of(train);
  ModelRegistry registry;

  EXPECT_THROW(registry.register_model("null", nullptr, schema),
               InvalidArgument);
  EXPECT_THROW(
      registry.register_model(
          "unfitted",
          std::shared_ptr<const ml::Regressor>(ml::make_model("LR-B").make()),
          schema),
      InvalidArgument);

  // A model fitted on a *wider* layout must fail the registration probe —
  // predicting the narrow schema's probe row cannot satisfy its encoder —
  // rather than serve garbage later.
  data::Dataset narrow;
  narrow.add_feature(data::Column::numeric("alpha", {1.0, 2.0, 3.0, 4.0}));
  narrow.add_feature(data::Column::numeric("beta", {2.0, 4.0, 6.0, 8.0}));
  narrow.set_target("y", {1.0, 2.0, 3.0, 4.0});
  EXPECT_THROW(registry.register_model("mismatch", fit_model(train, "LR-B"),
                                       Schema::of(narrow)),
               InvalidArgument);
  EXPECT_EQ(registry.size(), 0u);
}

// --------------------------------------------------------------- session --

TEST(Session, BatchedPredictionsBitIdenticalToDirectPredict) {
  const data::Dataset train = make_train(64);
  ModelRegistry registry;
  const auto model = fit_model(train, "NN-E");
  registry.register_model("nn", model, Schema::of(train));

  InferenceSession session(registry, "nn");
  const std::vector<double> via_session = session.predict(train);
  const std::vector<double> direct = model->predict(train);
  ASSERT_EQ(via_session.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    // Bit-identical, not approximately equal: the determinism contract.
    EXPECT_EQ(via_session[i], direct[i]) << "row " << i;
  }
  // One-row requests answer exactly what the batch does.
  for (std::size_t i = 0; i < train.n_rows(); ++i) {
    const std::size_t one[] = {i};
    const std::vector<double> single = session.predict(train.select_rows(one));
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0], via_session[i]) << "row " << i;
  }
}

TEST(Session, RejectsSchemaMismatchedRequests) {
  const data::Dataset train = make_train(16);
  ModelRegistry registry;
  registry.register_model("m", fit_model(train, "LR-B"), Schema::of(train));
  InferenceSession session(registry, "m");

  data::Dataset other;
  other.add_feature(data::Column::numeric("alpha", {1.0}));
  EXPECT_THROW(session.predict(other), InvalidArgument);
  EXPECT_THROW(InferenceSession(registry, "absent"), StateError);
}

TEST(Session, FailedBatchDegradesToPerRowRetry) {
  const data::Dataset train = make_train(12);
  ModelRegistry registry;
  registry.register_model("m", fit_model(train, "LR-B"), Schema::of(train));
  InferenceSession session(registry, "m");

  // First flush throws; every row then succeeds individually, so the caller
  // still gets a full answer and only the stats betray the degradation.
  {
    failpoint::ScopedFailpoints arm("engine.session.flush=nth:1");
    const BatchOutcome outcome = session.predict_detailed(train);
    EXPECT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome.degraded);
    EXPECT_EQ(outcome.values.size(), train.n_rows());
  }
  EXPECT_EQ(session.stats().degraded, 1u);

  // Batch fails AND one row keeps failing: the poisoned row fails alone,
  // its batch neighbours keep their predictions.
  {
    failpoint::ScopedFailpoints arm(
        "engine.session.flush=nth:1,engine.session.row=nth:3");
    const BatchOutcome outcome = session.predict_detailed(train);
    EXPECT_FALSE(outcome.ok());
    EXPECT_TRUE(outcome.degraded);
    ASSERT_EQ(outcome.failed_rows.size(), 1u);
    EXPECT_EQ(outcome.failed_rows[0], 2u);  // 3rd hit = row index 2
    ASSERT_EQ(outcome.row_errors.size(), 1u);
    EXPECT_TRUE(std::isnan(outcome.values[2]));
    EXPECT_FALSE(std::isnan(outcome.values[1]));
  }

  // The throwing predict() surfaces the first row failure as an exception
  // (fresh triggers: the nth counters above are already consumed).
  {
    failpoint::ScopedFailpoints arm(
        "engine.session.flush=nth:1,engine.session.row=nth:1");
    EXPECT_THROW(session.predict(train), NumericalError);
  }
}

TEST(Session, ConcurrentRequestsStayBitIdentical) {
  // The tsan-label workhorse: many threads share one session against one
  // registry entry and predict side by side on the const model; every
  // thread must see exactly the direct per-slice answer.
  const data::Dataset train = make_train(96);
  ModelRegistry registry;
  const auto model = fit_model(train, "NN-E");
  registry.register_model("nn", model, Schema::of(train));
  InferenceSession session(registry, "nn");

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 8;
  std::vector<data::Dataset> slices;
  std::vector<std::vector<double>> expected;
  for (std::size_t t = 0; t < kThreads; ++t) {
    std::vector<std::size_t> rows;
    for (std::size_t r = t; r < train.n_rows(); r += kThreads) {
      rows.push_back(r);
    }
    slices.push_back(train.select_rows(rows));
    expected.push_back(model->predict(slices.back()));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        const std::vector<double> got = session.predict(slices[t]);
        if (got != expected[t]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.rows, kThreads * kRounds * (train.n_rows() / kThreads));
  EXPECT_EQ(stats.batches, kThreads * kRounds);  // one batch per request
}

TEST(Session, ConcurrentSessionsAgainstOneRegistry) {
  // Two sessions on different names plus a concurrent re-registration of a
  // third name: registry snapshots must stay coherent under readers.
  const data::Dataset train = make_train(48);
  ModelRegistry registry;
  const auto lr = fit_model(train, "LR-B");
  const auto nn = fit_model(train, "NN-E");
  registry.register_model("lr", lr, Schema::of(train));
  registry.register_model("nn", nn, Schema::of(train));
  const std::vector<double> want_lr = lr->predict(train);
  const std::vector<double> want_nn = nn->predict(train);

  InferenceSession lr_session(registry, "lr");
  InferenceSession nn_session(registry, "nn");
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 6; ++i) {
        if (lr_session.predict(train) != want_lr) mismatches.fetch_add(1);
      }
    });
    threads.emplace_back([&] {
      for (int i = 0; i < 6; ++i) {
        if (nn_session.predict(train) != want_nn) mismatches.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 6; ++i) {
      registry.register_model("swap", fit_model(train, "LR-E"),
                              Schema::of(train));
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(registry.get("swap")->version, 6u);
}

// ----------------------------------------------------------- fit & score --

TEST(FitScore, RunsEveryRequestedStage) {
  const data::Dataset train = make_train(48);
  const data::Dataset score = make_train(12);
  FitScoreRequest request;
  request.model = ml::make_model("LR-B");
  request.train = &train;
  request.estimate = true;
  request.validation.repeats = 2;
  request.score = &score;
  const FitScoreResult cell = fit_and_score(request);
  ASSERT_TRUE(cell.ok());
  EXPECT_EQ(cell.name, "LR-B");
  ASSERT_NE(cell.model, nullptr);
  EXPECT_TRUE(cell.model->fitted());
  EXPECT_EQ(cell.estimate.folds.size(), 2u);  // one fold MAPE per repeat
  EXPECT_EQ(cell.predictions.size(), score.n_rows());
  EXPECT_GE(cell.fit_seconds, 0.0);
}

TEST(FitScore, CapturesFailuresAsRecordsInsteadOfThrowing) {
  const data::Dataset train = make_train(24);
  FitScoreRequest request;
  request.model = ml::make_model("LR-B");
  request.train = &train;
  request.failpoint = "engine.test.cell";
  failpoint::ScopedFailpoints arm("engine.test.cell=err:IoError");
  const FitScoreResult cell = fit_and_score(request);
  EXPECT_FALSE(cell.ok());
  ASSERT_TRUE(cell.failure.has_value());
  EXPECT_EQ(cell.failure->name, "LR-B");
  EXPECT_EQ(cell.failure->error_type, "IoError");
  EXPECT_EQ(cell.model, nullptr);       // no half-trained artifact leaks
  EXPECT_TRUE(cell.predictions.empty());
}

TEST(FitScore, NullTrainIsAContractViolation) {
  FitScoreRequest request;
  request.model = ml::make_model("LR-B");
  EXPECT_THROW(fit_and_score(request), InvalidArgument);
}

// ------------------------------------------------------------ cold start --

TEST(DesignSpace, BuiltOncePerProcess) {
  metrics::Counter& cold = metrics::counter("engine.predict.cold_start");
  const data::Dataset& first = design_space_dataset();
  const std::uint64_t after_first = cold.value();
  EXPECT_GE(after_first, 1u);
  const data::Dataset& again = design_space_dataset();
  EXPECT_EQ(&first, &again);                    // same cached object
  EXPECT_EQ(cold.value(), after_first);         // no second build
  EXPECT_EQ(first.n_rows(), sim::kDesignSpaceSize);
  EXPECT_TRUE(design_space_schema().matches(first));
  EXPECT_EQ(design_space_configs().size(), sim::kDesignSpaceSize);
}

// ------------------------------------------------------------------ serve --

/// A request row in this suite's make_train schema, as a serve-protocol
/// JSON object.
std::string train_row_json() {
  return R"({"size_kb": 16, "latency": 2, "wide": true, "predictor": "medium"})";
}

ServeHandler make_handler(ModelRegistry& registry) {
  const data::Dataset train = make_train(24);
  registry.register_model("m", fit_model(train, "LR-B"), Schema::of(train));
  ServeOptions options;
  options.default_model = "m";
  return ServeHandler(registry, options);
}

TEST(Serve, ZeroRowRequestAnswersEmptyPredictions) {
  ModelRegistry registry;
  ServeHandler handler = make_handler(registry);
  const std::string response = handler.handle(R"({"rows": []})");
  EXPECT_EQ(response,
            "{\"ok\":true,\"model\":\"m\",\"version\":1,\"predictions\":[]}\n");
  const ServeSummary summary = handler.summary();
  EXPECT_EQ(summary.requests, 1u);
  EXPECT_EQ(summary.rows, 0u);
  EXPECT_EQ(summary.errors, 0u);
}

TEST(Serve, MissingRowsIsAClearInvalidArgument) {
  ModelRegistry registry;
  ServeHandler handler = make_handler(registry);
  // Missing and non-array "rows" must surface the protocol contract, not a
  // raw JSON-accessor error.
  const std::vector<std::string> bad_requests = {
      R"({"model": "m"})", R"({"rows": {"not": "an array"}})",
      R"({"rows": 7})"};
  for (const std::string& request : bad_requests) {
    const std::string response = handler.handle(request);
    EXPECT_NE(response.find("request needs a \\\"rows\\\" array"),
              std::string::npos)
        << response;
    EXPECT_NE(response.find("InvalidArgument"), std::string::npos) << response;
  }
  EXPECT_EQ(handler.summary().errors, 3u);
}

TEST(Serve, BlankLinesAreSkippedNotAnswered) {
  ModelRegistry registry;
  ServeHandler handler = make_handler(registry);
  EXPECT_EQ(handler.handle(""), "");
  EXPECT_EQ(handler.handle("   \t"), "");
  EXPECT_EQ(handler.summary().requests, 0u);
}

TEST(Serve, CrlfTerminatedLinesParse) {
  // The stdin loop hands getline output to the handler with the \r still
  // attached; the JSON parser treats it as whitespace. Pin that contract —
  // the TCP front-end strips \r itself, so both transports accept CRLF.
  ModelRegistry registry;
  ServeHandler handler = make_handler(registry);
  const std::string response =
      handler.handle("{\"rows\": [" + train_row_json() + "]}\r");
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_EQ(handler.summary().rows, 1u);
}

TEST(Serve, RequestLargerThanQueueFailsAloneLoopKeepsServing) {
  // The stdin loop's row bound: one row past it is answered alone with
  // StateError, a request at the bound is served, and so is the next line.
  constexpr std::size_t kBound = ServeHandler::kMaxRequestRows;
  EXPECT_EQ(kBound, 4096u);
  const auto request_of = [](std::size_t rows) {
    std::string line = R"({"rows": [)";
    for (std::size_t i = 0; i < rows; ++i) {
      if (i > 0) line += ",";
      line += train_row_json();
    }
    return line + "]}\n";
  };
  ModelRegistry registry;
  const data::Dataset train = make_train(24);
  registry.register_model("m", fit_model(train, "LR-B"), Schema::of(train));
  ServeOptions options;
  options.default_model = "m";
  std::istringstream in(request_of(kBound + 1) + request_of(kBound) +
                        request_of(1));
  std::ostringstream out;
  const ServeSummary summary = serve(registry, in, out, options);

  std::istringstream responses(out.str());
  std::string refused, at_bound, after;
  ASSERT_TRUE(std::getline(responses, refused));
  ASSERT_TRUE(std::getline(responses, at_bound));
  ASSERT_TRUE(std::getline(responses, after));
  EXPECT_NE(refused.find("\"ok\":false"), std::string::npos) << refused;
  EXPECT_NE(refused.find("StateError"), std::string::npos) << refused;
  EXPECT_NE(refused.find("4097 rows"), std::string::npos) << refused;
  EXPECT_NE(at_bound.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(after.find("\"ok\":true"), std::string::npos) << after;
  EXPECT_EQ(summary.requests, 3u);
  EXPECT_EQ(summary.errors, 1u);
  EXPECT_EQ(summary.rows, kBound + 1);
}

TEST(Serve, PartialResponsesCountSeparatelyFromErrors) {
  ModelRegistry registry;
  ServeHandler handler = make_handler(registry);
  metrics::Counter& partial_metric = metrics::counter("engine.serve.partial");
  const std::uint64_t partial_before = partial_metric.value();

  std::string request = R"({"rows": [)" + train_row_json() + "," +
                        train_row_json() + "]}";
  std::string response;
  {
    // Poison one row: the batch degrades to per-row retry and exactly one
    // row fails, yielding a partial response.
    failpoint::ScopedFailpoints arm(
        "engine.session.flush=nth:1,engine.session.row=nth:1");
    response = handler.handle(request);
  }
  EXPECT_NE(response.find("\"partial\":true"), std::string::npos) << response;
  EXPECT_NE(response.find("null"), std::string::npos) << response;

  const ServeSummary summary = handler.summary();
  EXPECT_EQ(summary.partial, 1u);   // a partly-answered request is not
  EXPECT_EQ(summary.errors, 0u);    // a whole-request failure
  EXPECT_EQ(summary.rows, 1u);      // the surviving row still counts
  EXPECT_EQ(partial_metric.value(), partial_before + 1);
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Row-level edge cases against the committed applu fixture (the requests
// CI's serve smoke pipes through `dsml serve`): every error text and its
// precedence, number tokens and sentinels, padded and duplicate fields.
// The golden is the handler's output before rows decoded into typed
// columns.
TEST(Serve, EdgeRequestsMatchGolden) {
  const std::string dir = std::string(DSML_REPO_ROOT) + "/tests/data/serve/";
  ModelRegistry registry;
  registry.load_file("applu", dir + "model.dsml", design_space_schema());
  ServeOptions options;
  options.default_model = "applu";
  ServeHandler handler(registry, options);
  std::istringstream requests(read_text(dir + "requests_edge.jsonl"));
  std::string line;
  std::string responses;
  while (std::getline(requests, line)) responses += handler.handle(line);
  EXPECT_EQ(responses, read_text(dir + "golden_edge.jsonl"));
}

TEST(Serve, StdinLoopMatchesHandlerByteForByte) {
  const std::string requests = "{\"rows\": [" + train_row_json() + "]}\n" +
                               "\n" +  // blank line: skipped, no response
                               R"({"model": "nope", "rows": []})" + "\n" +
                               R"({"rows": 7})" + "\n";
  ModelRegistry stream_registry;
  const data::Dataset train = make_train(24);
  stream_registry.register_model("m", fit_model(train, "LR-B"),
                                 Schema::of(train));
  ServeOptions options;
  options.default_model = "m";
  std::istringstream in(requests);
  std::ostringstream out;
  const ServeSummary loop_summary =
      serve(stream_registry, in, out, options);

  ModelRegistry handler_registry;
  ServeHandler handler = make_handler(handler_registry);
  std::string expected;
  std::istringstream lines(requests);
  std::string line;
  while (std::getline(lines, line)) expected += handler.handle(line);

  EXPECT_EQ(out.str(), expected);
  const ServeSummary handler_summary = handler.summary();
  EXPECT_EQ(loop_summary.requests, handler_summary.requests);
  EXPECT_EQ(loop_summary.rows, handler_summary.rows);
  EXPECT_EQ(loop_summary.errors, handler_summary.errors);
  EXPECT_EQ(loop_summary.partial, handler_summary.partial);
}

}  // namespace
}  // namespace dsml::engine
