// Strict number parsing for user input (CLI flags, worker argv operands).
// The whole text must be one base-10 number (std::from_chars grammar: no
// leading whitespace or '+', no hex) that lies in [lo, hi]; floating-point
// values must also be finite. Unlike atoi/strtod, "2x", "abc" and "" are
// errors rather than 2, 0 and 0, and an out-of-range value is rejected
// instead of wrapped or clamped.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace grist::common {

/// The value of `text` if it parses in full and lies in [lo, hi];
/// std::nullopt otherwise.
template <class T>
std::optional<T> parseNumber(std::string_view text, T lo, T hi) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  if (value < lo || value > hi) return std::nullopt;
  return value;
}

} // namespace grist::common
