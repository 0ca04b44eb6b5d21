#include "util/checked_count.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace mmog::util {
namespace {

TEST(CheckedCountTest, AcceptsIntegersInRange) {
  EXPECT_EQ(checked_count(0.0, "n"), 0u);
  EXPECT_EQ(checked_count(-0.0, "n"), 0u);
  EXPECT_EQ(checked_count(42.0, "n"), 42u);
  EXPECT_EQ(checked_count(7.0, "n", 7), 7u);
  // The largest double below 2^64.
  EXPECT_EQ(checked_count(0x1.fffffffffffffp63, "n"),
            std::uint64_t{0xfffffffffffff800});
}

TEST(CheckedCountTest, RejectsWhatNoCountHolds) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {-1.0, -0.5, 0.5, std::nan(""), inf, -inf, 1e300,
                           0x1p64}) {
    EXPECT_THROW(checked_count(bad, "n"), std::invalid_argument) << bad;
  }
  EXPECT_THROW(checked_count(8.0, "n", 7), std::invalid_argument);
}

TEST(CheckedCountTest, MessageNamesTheValueAndItsRange) {
  try {
    checked_count(-1.0, "ArPredictor: state size", 6);
    FAIL() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "ArPredictor: state size: '-1' is not an integer in [0, 6]");
  }
}

}  // namespace
}  // namespace mmog::util
