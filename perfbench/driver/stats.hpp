#pragma once

#include <array>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count),
/// as Python's statistics.median computes it. 0 for an empty input.
double median(std::vector<double> values);

/// First, second and third quartile with the "exclusive" method of
/// Python's statistics.quantiles(values, n=4) — the same definition the
/// benchmark's run-to-run spread is judged by. One value yields that value
/// three times; an empty input yields zeros.
std::array<double, 3> quartiles(std::vector<double> values);

}  // namespace perfbench
