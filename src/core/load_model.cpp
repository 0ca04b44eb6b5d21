#include "core/load_model.hpp"

#include <algorithm>
#include <cmath>

namespace mmog::core {

std::string_view update_model_name(UpdateModel m) noexcept {
  switch (m) {
    case UpdateModel::kLinear: return "O(n)";
    case UpdateModel::kNLogN: return "O(n x log n)";
    case UpdateModel::kQuadratic: return "O(n^2)";
    case UpdateModel::kQuadraticLogN: return "O(n^2 x log n)";
    case UpdateModel::kCubic: return "O(n^3)";
  }
  return "?";
}

double update_cost(UpdateModel m, double n) noexcept {
  if (n <= 0.0) return 0.0;
  switch (m) {
    case UpdateModel::kLinear: return n;
    case UpdateModel::kNLogN: return n * std::log2(n + 1.0);
    case UpdateModel::kQuadratic: return n * n;
    case UpdateModel::kQuadraticLogN: return n * n * std::log2(n + 1.0);
    case UpdateModel::kCubic: return n * n * n;
  }
  return 0.0;
}

UpdateModel with_area_of_interest(UpdateModel m) noexcept {
  switch (m) {
    case UpdateModel::kQuadratic: return UpdateModel::kNLogN;
    case UpdateModel::kCubic: return UpdateModel::kQuadraticLogN;
    default: return m;
  }
}

double LoadModel::cpu_demand(double players) const noexcept {
  const double p = std::max(0.0, players);
  const double full = update_cost(model, reference_players);
  if (full <= 0.0) return 0.0;
  return update_cost(model, p) / full;
}

util::ResourceVector LoadModel::demand(double players) const noexcept {
  const double p = std::max(0.0, players);
  const double linear = reference_players > 0.0 ? p / reference_players : 0.0;
  // Memory holds entity state and network traffic is per-player streaming,
  // so both scale linearly; CPU follows the interaction update model.
  return util::ResourceVector::of(cpu_demand(p), linear, linear, linear);
}

}  // namespace mmog::core
