#include "core/load_model.hpp"

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

UpdateModel with_area_of_interest(UpdateModel m) noexcept {
  switch (m) {
    case UpdateModel::kQuadratic: return UpdateModel::kNLogN;
    case UpdateModel::kCubic: return UpdateModel::kQuadraticLogN;
    default: return m;
  }
}

}  // namespace mmog::core
