// Small string utilities used by CSV parsing and report formatting.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dsml::strings {

/// Split on a delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char delim);

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Lower-case ASCII copy.
std::string to_lower(std::string_view s);

/// True if `s` parses fully as a floating-point number.
bool is_number(std::string_view s);

/// Parse a double; throws dsml::IoError with context on failure.
double parse_double(std::string_view s);

/// Parse a non-negative decimal integer; throws dsml::IoError with context
/// on failure (sign, stray characters, overflow). CLI flags route through
/// this instead of bare std::stoull so malformed input surfaces as a
/// taxonomy error, not a raw std::invalid_argument.
std::uint64_t parse_u64(std::string_view s);

/// printf-style float formatting helper (fixed, `digits` decimals).
std::string format_double(double v, int digits);

/// The shortest text that parses back to exactly `v` (std::to_chars with no
/// format or precision), so an integral value prints as an integer:
/// 2869393, not the stream default's 2.86939e+06.
std::string format_shortest(double v);

}  // namespace dsml::strings
