#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

namespace mmog::util {

/// Turns a parsed double (a checkpoint payload slot, a grammar value) into a
/// count or index. The value must be finite, integral and in [0, max];
/// anything else throws std::invalid_argument prefixed with `what`, before
/// any cast, so -1, NaN or 1e300 never reach an undefined float-to-integer
/// conversion.
std::uint64_t checked_count(
    double value, std::string_view what,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

}  // namespace mmog::util
