// Property-based tests of the request-offer matcher across every latency
// tolerance class and several demand origins.

#include <gtest/gtest.h>

#include <tuple>

#include "core/matcher.hpp"
#include "dc/ecosystem.hpp"

namespace mmog::core {
namespace {

using Combo = std::tuple<dc::DistanceClass, const char*>;

class MatcherProperties : public ::testing::TestWithParam<Combo> {
 protected:
  dc::DistanceClass tolerance() const { return std::get<0>(GetParam()); }
  dc::GeoPoint origin() const {
    return dc::region_site(std::get<1>(GetParam())).location;
  }
};

TEST_P(MatcherProperties, CandidatesRespectTolerance) {
  const auto dcs = dc::paper_ecosystem();
  const Matcher matcher(dcs);
  for (std::size_t i : matcher.candidates(origin(), tolerance())) {
    EXPECT_TRUE(dc::within_tolerance(matcher.distance_km(origin(), i),
                                     tolerance()))
        << dcs[i].name;
  }
}

TEST_P(MatcherProperties, WiderToleranceIsASuperset) {
  const auto dcs = dc::paper_ecosystem();
  const Matcher matcher(dcs);
  const auto narrow = matcher.candidates(origin(), tolerance());
  const auto wide =
      matcher.candidates(origin(), dc::DistanceClass::kVeryFar);
  for (std::size_t i : narrow) {
    EXPECT_NE(std::find(wide.begin(), wide.end(), i), wide.end());
  }
  EXPECT_GE(wide.size(), narrow.size());
}

TEST_P(MatcherProperties, OrderedFinerGrainFirst) {
  const auto dcs = dc::paper_ecosystem();
  const Matcher matcher(dcs);
  const auto order = matcher.candidates(origin(), tolerance());
  for (std::size_t i = 1; i < order.size(); ++i) {
    const auto prev = dcs[order[i - 1]].policy.granularity_key();
    const auto cur = dcs[order[i]].policy.granularity_key();
    EXPECT_FALSE(cur < prev);
    if (prev == cur) {
      // Equal grain: closest first.
      EXPECT_LE(matcher.distance_km(origin(), order[i - 1]),
                matcher.distance_km(origin(), order[i]) + 1e-9);
    }
  }
}

TEST_P(MatcherProperties, NoDuplicates) {
  const Matcher matcher(dc::paper_ecosystem());
  auto order = matcher.candidates(origin(), tolerance());
  auto sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST_P(MatcherProperties, VeryFarSeesEveryCenter) {
  const auto dcs = dc::paper_ecosystem();
  const Matcher matcher(dcs);
  EXPECT_EQ(
      matcher.candidates(origin(), dc::DistanceClass::kVeryFar).size(),
      dcs.size());
}

INSTANTIATE_TEST_SUITE_P(
    TolerancesAndOrigins, MatcherProperties,
    ::testing::Combine(::testing::Values(dc::DistanceClass::kSameLocation,
                                         dc::DistanceClass::kVeryClose,
                                         dc::DistanceClass::kClose,
                                         dc::DistanceClass::kFar,
                                         dc::DistanceClass::kVeryFar),
                       ::testing::Values("Europe", "US East Coast",
                                         "Australia")),
    [](const auto& info) {
      std::string name = "T";
      name += std::to_string(static_cast<int>(std::get<0>(info.param)));
      for (char c : std::string(std::get<1>(info.param))) {
        if (std::isalnum(static_cast<unsigned char>(c))) name += c;
      }
      return name;
    });

}  // namespace
}  // namespace mmog::core
