#include "util/checked_count.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>

namespace mmog::util {

std::uint64_t checked_count(double value, std::string_view what,
                            std::uint64_t max) {
  // 0x1p64 is the first double past the uint64_t range; the negated
  // comparison also rejects NaN.
  if (!(value >= 0.0 && value < 0x1p64) || std::trunc(value) != value ||
      static_cast<std::uint64_t>(value) > max) {
    char text[32];
    const auto end = std::to_chars(text, text + sizeof text, value).ptr;
    throw std::invalid_argument(std::string(what) + ": '" +
                                std::string(text, end) +
                                "' is not an integer in [0, " +
                                std::to_string(max) + "]");
  }
  return static_cast<std::uint64_t>(value);
}

}  // namespace mmog::util
