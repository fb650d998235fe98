#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace dsml::json {

// ---------------------------------------------------------------- Value ----

bool Value::as_bool() const {
  if (type_ != Type::kBool) throw IoError("json: value is not a boolean");
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) throw IoError("json: value is not a number");
  return number_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) throw IoError("json: value is not a string");
  return string_;
}

const std::vector<Value>& Value::items() const {
  if (type_ != Type::kArray) throw IoError("json: value is not an array");
  return array_;
}

const std::vector<std::pair<std::string, Value>>& Value::fields() const {
  if (type_ != Type::kObject) throw IoError("json: value is not an object");
  return object_;
}

bool Value::contains(const std::string& key) const noexcept {
  if (type_ != Type::kObject) return false;
  for (const auto& [k, v] : object_) {
    if (k == key) return true;
  }
  return false;
}

const Value& Value::at(const std::string& key) const {
  for (const auto& [k, v] : fields()) {
    if (k == key) return v;
  }
  throw IoError("json: missing key '" + key + "'");
}

// --------------------------------------------------------------- Parser ----

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw IoError("json parse error at offset " + std::to_string(pos_) +
                  ": " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{':
      case '[': {
        if (++depth_ > kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) +
               " levels");
        }
        Value v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        Value v;
        v.string_ = parse_string();
        // Map the Writer's non-finite sentinels back to numbers so a value
        // round-trips with its type (see format_number). These strings are
        // reserved as *values*; object keys are unaffected.
        if (v.string_ == "NaN") {
          v.type_ = Value::Type::kNumber;
          v.number_ = std::numeric_limits<double>::quiet_NaN();
          v.string_.clear();
        } else if (v.string_ == "Infinity") {
          v.type_ = Value::Type::kNumber;
          v.number_ = std::numeric_limits<double>::infinity();
          v.string_.clear();
        } else if (v.string_ == "-Infinity") {
          v.type_ = Value::Type::kNumber;
          v.number_ = -std::numeric_limits<double>::infinity();
          v.string_.clear();
        } else {
          v.type_ = Value::Type::kString;
        }
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        {
          Value v;
          v.type_ = Value::Type::kBool;
          v.bool_ = true;
          return v;
        }
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        {
          Value v;
          v.type_ = Value::Type::kBool;
          v.bool_ = false;
          return v;
        }
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value{};
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.type_ = Value::Type::kObject;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      v.object_.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.type_ = Value::Type::kArray;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array_.push_back(parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4U;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported —
          // the repo's documents are ASCII).
          if (code < 0x80U) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800U) {
            out.push_back(static_cast<char>(0xC0U | (code >> 6U)));
            out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
          } else {
            out.push_back(static_cast<char>(0xE0U | (code >> 12U)));
            out.push_back(static_cast<char>(0x80U | ((code >> 6U) & 0x3FU)));
            out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("expected a value");
    Value v;
    v.type_ = Value::Type::kNumber;
    const char* last = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), last, v.number_);
    if (ec != std::errc() || ptr != last) {
      // from_chars rejects what strtod accepts: a leading '+', and values
      // that overflow to ±inf or underflow to 0. strtod decides every token
      // from_chars does not take, so the accepted set and the values stay
      // strtod's.
      const std::string copy(token);
      char* end = nullptr;
      v.number_ = std::strtod(copy.c_str(), &end);
      if (end != copy.c_str() + copy.size()) fail("malformed number");
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // arrays and objects open at pos_
};

Value Value::parse(std::string_view text) {
  return Parser(text).parse_document();
}

Value Value::parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("json: cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

// --------------------------------------------------------------- Writer ----

namespace {

void append_number(std::string& out, double v) {
  // JSON has no literal for non-finite doubles. Emitting null (the old
  // behavior) silently changed the *type* on round-trip, so a NaN model
  // error could slip past numeric comparisons; the string sentinels below
  // keep the value representable and the Parser maps them back to numbers.
  if (std::isnan(v)) {
    out += "\"NaN\"";
  } else if (std::isinf(v)) {
    out += v > 0.0 ? "\"Infinity\"" : "\"-Infinity\"";
  } else {
    // General format at precision 17 is defined as printf's "%.17g".
    char buf[32];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof(buf), v, std::chars_format::general, 17);
    out.append(buf, r.ptr);
  }
}

void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20U) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

std::string format_number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

void Writer::indent() {
  if (compact_) return;
  out_.push_back('\n');
  out_.append(stack_.size() * 2, ' ');
}

void Writer::before_value() {
  if (done_) throw StateError("json::Writer: document already complete");
  if (stack_.empty()) return;
  if (stack_.back() == Frame::kObject && !key_pending_) {
    throw StateError("json::Writer: value inside an object needs a key");
  }
  if (stack_.back() == Frame::kArray) {
    if (has_items_.back()) out_.push_back(',');
    indent();
  }
  has_items_.back() = true;
  key_pending_ = false;
}

Writer& Writer::key(std::string_view k) {
  if (done_ || stack_.empty() || stack_.back() != Frame::kObject) {
    throw StateError("json::Writer: key() outside an object");
  }
  if (key_pending_) throw StateError("json::Writer: key already pending");
  if (has_items_.back()) out_.push_back(',');
  indent();
  append_escaped(out_, k);
  out_ += compact_ ? ":" : ": ";
  key_pending_ = true;
  return *this;
}

Writer& Writer::begin_object() {
  before_value();
  out_.push_back('{');
  stack_.push_back(Frame::kObject);
  has_items_.push_back(false);
  return *this;
}

Writer& Writer::end_object() {
  if (stack_.empty() || stack_.back() != Frame::kObject || key_pending_) {
    throw StateError("json::Writer: unbalanced end_object");
  }
  const bool had_items = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had_items) indent();
  out_.push_back('}');
  if (stack_.empty()) done_ = true;
  return *this;
}

Writer& Writer::begin_array() {
  before_value();
  out_.push_back('[');
  stack_.push_back(Frame::kArray);
  has_items_.push_back(false);
  return *this;
}

Writer& Writer::end_array() {
  if (stack_.empty() || stack_.back() != Frame::kArray) {
    throw StateError("json::Writer: unbalanced end_array");
  }
  const bool had_items = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had_items) indent();
  out_.push_back(']');
  if (stack_.empty()) done_ = true;
  return *this;
}

Writer& Writer::value(double v) {
  before_value();
  append_number(out_, v);
  return *this;
}

Writer& Writer::value(std::int64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

Writer& Writer::value(std::uint64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

Writer& Writer::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
  return *this;
}

Writer& Writer::value(std::string_view v) {
  before_value();
  append_escaped(out_, v);
  return *this;
}

Writer& Writer::null() {
  before_value();
  out_ += "null";
  return *this;
}

std::string Writer::str() const {
  if (!done_) throw StateError("json::Writer: document not finished");
  return out_ + "\n";
}

}  // namespace dsml::json
