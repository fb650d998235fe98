#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "common/error.hpp"

namespace dsml::strings {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool is_number(std::string_view s) {
  s = trim(s);
  if (s.empty()) return false;
  double value = 0.0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  return ec == std::errc() && ptr == end;
}

double parse_double(std::string_view s) {
  const std::string_view t = trim(s);
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), value);
  if (ec != std::errc() || ptr != t.data() + t.size()) {
    throw IoError("parse_double: cannot parse '" + std::string(s) + "'");
  }
  return value;
}

std::uint64_t parse_u64(std::string_view s) {
  const std::string_view t = trim(s);
  std::uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), value);
  if (ec != std::errc() || ptr != t.data() + t.size()) {
    throw IoError("parse_u64: cannot parse '" + std::string(s) +
                  "' as a non-negative integer");
  }
  return value;
}

std::string format_double(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string format_shortest(double v) {
  char buf[32];  // the longest shortest form, -2.2250738585072014e-308, fits
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

}  // namespace dsml::strings
