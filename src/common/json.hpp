// Minimal JSON support: a streaming writer and a small recursive-descent
// parser.
//
// The serve and fleet protocols exchange JSON lines, and `dsml loadgen`,
// `dsml stats --json` and the trace exporter write JSON reports that
// loadgen's --check re-reads (BENCH_SERVE.json), so we need both
// directions but only for plain data: objects, arrays, numbers, strings,
// booleans, null. No external dependency is worth that little surface.
//
// Writer output is deterministic (insertion order, fixed indentation,
// round-trippable '%.17g' numbers). JSON has no NaN/Inf literal, so
// non-finite doubles are emitted as the string sentinels "NaN", "Infinity",
// and "-Infinity", which the Parser maps back to number values — a
// non-finite entry round-trips as a (non-finite) number instead of
// silently becoming null. Those three strings are therefore reserved as
// values; writing them via value(std::string_view) round-trips as numbers.
//
// The parser recurses once per nesting level, so it refuses documents
// nested deeper than kMaxDepth: a request line of a few hundred thousand
// '[' must be a parse error, not a stack overflow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dsml::json {

/// The deepest nesting of arrays and objects the parser accepts. The repo's
/// own documents nest a handful of levels.
inline constexpr std::size_t kMaxDepth = 256;

/// A parsed JSON document node. Objects preserve key order.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }

  /// Typed accessors; throw IoError when the node has a different type.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Value>& items() const;

  /// Object field lookup. `contains` is type-safe on non-objects (false);
  /// `at` throws IoError when the key (or object-ness) is missing.
  bool contains(const std::string& key) const noexcept;
  const Value& at(const std::string& key) const;
  const std::vector<std::pair<std::string, Value>>& fields() const;

  /// Parses a complete document; trailing non-whitespace is an error.
  /// Throws IoError with position context on malformed input, and on
  /// nesting deeper than kMaxDepth.
  static Value parse(std::string_view text);

  /// Reads and parses a file; throws IoError if unreadable.
  static Value parse_file(const std::string& path);

 private:
  friend class Parser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// Streaming JSON writer with automatic comma placement and two-space
/// indentation. Usage errors (value without key inside an object, unbalanced
/// end_*) throw StateError.
class Writer {
 public:
  /// Pretty (indented) output by default; `Writer(true)` emits the document
  /// on a single line — what JSON-lines protocols (`dsml serve`) need, since
  /// a newline inside a response would split it into two protocol lines.
  Writer() = default;
  explicit Writer(bool compact) : compact_(compact) {}

  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();
  Writer& key(std::string_view k);
  Writer& value(double v);
  Writer& value(std::int64_t v);
  Writer& value(std::uint64_t v);
  Writer& value(int v) { return value(static_cast<std::int64_t>(v)); }
  Writer& value(bool v);
  Writer& value(std::string_view v);
  Writer& value(const char* v) { return value(std::string_view(v)); }
  Writer& null();

  /// Shorthand for key(k) followed by value(v).
  template <typename T>
  Writer& field(std::string_view k, T v) {
    key(k);
    return value(v);
  }

  /// The finished document; throws StateError if containers are still open.
  std::string str() const;

 private:
  enum class Frame { kObject, kArray };

  void before_value();
  void indent();

  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> has_items_;
  bool compact_ = false;
  bool key_pending_ = false;
  bool done_ = false;
};

/// Round-trippable formatting for a JSON number: '%.17g' (through
/// std::to_chars) for finite values, the quoted string sentinels
/// "NaN"/"Infinity"/"-Infinity" otherwise (the Parser maps these back to
/// numbers). Exposed for tests.
std::string format_number(double v);

}  // namespace dsml::json
