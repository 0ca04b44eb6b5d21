#pragma once

#include <algorithm>
#include <cmath>
#include <string_view>

#include "util/units.hpp"

namespace mmog::core {

/// The paper's entity-update cost models (§II-A): how the per-step world
/// update cost scales with the number n of interacting entities. The model
/// is a property of the game's design (interaction type and count).
enum class UpdateModel {
  kLinear,         ///< O(n): mostly solitary players
  kNLogN,          ///< O(n log n): pairwise interaction + area of interest
  kQuadratic,      ///< O(n^2): many individually interacting players
  kQuadraticLogN,  ///< O(n^2 log n): group interaction + area of interest
  kCubic,          ///< O(n^3): many interacting groups
};

inline constexpr std::size_t kUpdateModelCount = 5;

std::string_view update_model_name(UpdateModel m) noexcept;

/// Raw (unnormalized) update cost g(n) of the model. Inline, like the
/// LoadModel members below, so the per-group-step demand calls in
/// core::simulate compile down to arithmetic.
inline double update_cost(UpdateModel m, double n) noexcept {
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

/// The area-of-interest optimization (§II-A): games that only update each
/// avatar's area of interest reduce O(n^2) to O(n log n) and O(n^3) to
/// O(n^2 log n). Models without a cheaper form are returned unchanged.
UpdateModel with_area_of_interest(UpdateModel m) noexcept;

/// Converts a server group's concurrent player count into a resource demand
/// in abstract units (§V-A: 1 unit of each resource = the requirement of a
/// fully loaded reference game server of `reference_players` clients).
///
/// CPU scales with the update model, normalized so that a full group needs
/// exactly 1.0 CPU units; memory and network scale linearly with players.
struct LoadModel {
  UpdateModel model = UpdateModel::kQuadratic;
  double reference_players = 2000.0;

  /// Demand vector for `players` concurrent players (clamped at >= 0).
  util::ResourceVector demand(double players) const noexcept {
    const double p = std::max(0.0, players);
    const double linear =
        reference_players > 0.0 ? p / reference_players : 0.0;
    // Memory holds entity state and network traffic is per-player
    // streaming, so both scale linearly; CPU follows the interaction update
    // model.
    return util::ResourceVector::of(cpu_demand(p), linear, linear, linear);
  }

  /// The CPU component alone (normalized update cost).
  double cpu_demand(double players) const noexcept {
    const double p = std::max(0.0, players);
    const double full = update_cost(model, reference_players);
    if (full <= 0.0) return 0.0;
    return update_cost(model, p) / full;
  }
};

}  // namespace mmog::core
