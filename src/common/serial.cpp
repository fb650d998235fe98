#include "common/serial.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/strings.hpp"

namespace dsml::serial {

void Writer::tag(const std::string& name) { out_ << name << '\n'; }

void Writer::u64(std::uint64_t v) { out_ << v << ' '; }

void Writer::i64(std::int64_t v) { out_ << v << ' '; }

void Writer::f64(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  out_ << buf << ' ';
}

void Writer::boolean(bool v) { out_ << (v ? 1 : 0) << ' '; }

void Writer::str(const std::string& s) {
  out_ << s.size() << ':' << s << ' ';
}

void Writer::f64_vector(const std::vector<double>& v) {
  u64(v.size());
  for (double x : v) f64(x);
}

void Writer::u64_vector(const std::vector<std::uint64_t>& v) {
  u64(v.size());
  for (std::uint64_t x : v) u64(x);
}

std::int64_t Reader::offset() const {
  // Query the buffer directly: tellg() reports -1 once the stream has hit
  // eof/fail, which is exactly when truncation errors need the position.
  if (in_.rdbuf() == nullptr) return -1;
  const auto pos =
      in_.rdbuf()->pubseekoff(0, std::ios_base::cur, std::ios_base::in);
  return static_cast<std::int64_t>(pos);
}

void Reader::fail_truncated() const {
  throw IoError("serial: unexpected end of input at byte " +
                std::to_string(offset()));
}

std::string Reader::token() {
  std::string t;
  if (!(in_ >> t)) fail_truncated();
  return t;
}

void Reader::expect_end() {
  std::string t;
  if (in_ >> t) {
    const std::int64_t end = offset();
    const std::int64_t start =
        end < 0 ? -1 : end - static_cast<std::int64_t>(t.size());
    throw IoError("serial: trailing garbage at byte " + std::to_string(start) +
                  " starting with '" + t + "'");
  }
}

void Reader::expect_tag(const std::string& expected) {
  const std::string got = token();
  if (got != expected) {
    throw IoError("serial: expected tag '" + expected + "', got '" + got +
                  "'");
  }
}

std::string Reader::tag() { return token(); }

std::uint64_t Reader::u64() {
  const std::string t = token();
  try {
    return strings::parse_u64(t);
  } catch (const IoError&) {
    throw IoError("serial: bad u64 '" + t + "' before byte " +
                  std::to_string(offset()));
  }
}

std::int64_t Reader::i64() {
  const std::string t = token();
  char* end = nullptr;
  const std::int64_t v = std::strtoll(t.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    throw IoError("serial: bad i64 '" + t + "' before byte " +
                  std::to_string(offset()));
  }
  return v;
}

double Reader::f64() {
  const std::string t = token();
  char* end = nullptr;
  const double v = std::strtod(t.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    throw IoError("serial: bad double '" + t + "' before byte " +
                  std::to_string(offset()));
  }
  return v;
}

bool Reader::boolean() { return u64() != 0; }

std::string Reader::str() {
  // Skip whitespace, read "<len>:<bytes>".
  std::uint64_t len = 0;
  char c;
  if (!(in_ >> c)) fail_truncated();
  std::string digits;
  while (c != ':') {
    if (c < '0' || c > '9') {
      throw IoError("serial: bad string length before byte " +
                    std::to_string(offset()));
    }
    digits += c;
    if (!in_.get(c)) fail_truncated();
  }
  try {
    len = strings::parse_u64(digits);
  } catch (const IoError&) {
    throw IoError("serial: bad string length '" + digits + "' before byte " +
                  std::to_string(offset()));
  }
  // The string grows only by bytes actually read, so a corrupt length
  // fails as truncation instead of allocating it up front.
  constexpr std::size_t kChunk = 4096;
  std::string s;
  for (std::uint64_t left = len; left > 0;) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(left, kChunk));
    const std::size_t done = s.size();
    s.resize(done + n);
    if (!in_.read(s.data() + done, static_cast<std::streamsize>(n))) {
      throw IoError("serial: truncated string (wanted " +
                    std::to_string(len) + " bytes) at byte " +
                    std::to_string(offset()));
    }
    left -= n;
  }
  return s;
}

// Vectors grow element by element, not by their declared count: a corrupt
// count fails as truncation after the elements that are there.
std::vector<double> Reader::f64_vector() {
  const std::uint64_t n = u64();
  std::vector<double> v;
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(f64());
  return v;
}

std::vector<std::uint64_t> Reader::u64_vector() {
  const std::uint64_t n = u64();
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(u64());
  return v;
}

}  // namespace dsml::serial
