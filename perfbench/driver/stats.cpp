#include "driver/stats.hpp"

#include <algorithm>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::array<double, 3> quartiles(std::vector<double> values) {
  if (values.empty()) return {0.0, 0.0, 0.0};
  if (values.size() == 1) return {values[0], values[0], values[0]};
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, cut point i at
  // rank i*m/4, clamped to [1, n-1], interpolated in exact integer steps.
  const long n = static_cast<long>(values.size());
  const long m = n + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    const double below = values[static_cast<std::size_t>(j - 1)];
    const double above = values[static_cast<std::size_t>(j)];
    out[static_cast<std::size_t>(i - 1)] =
        (below * (4.0 - delta) + above * delta) / 4.0;
  }
  return out;
}

}  // namespace perfbench
