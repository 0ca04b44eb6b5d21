#include "util/csv.hpp"

#include <gtest/gtest.h>

namespace mmog::util {
namespace {

// The reader side of the format is trace::read_world_csv: its CsvTest cases
// are in tests/trace/io_test.cpp.
TEST(CsvTest, EscapeOnlyWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("q\"q"), "\"q\"\"q\"");
  EXPECT_EQ(csv_escape("nl\nnl"), "\"nl\nnl\"");
}

}  // namespace
}  // namespace mmog::util
