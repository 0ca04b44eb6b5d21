#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include "trace/runescape_model.hpp"

namespace mmog::trace {
namespace {

WorldTrace make_world() {
  WorldTrace world;
  RegionalTrace region;
  region.name = "Europe";
  for (int g = 0; g < 2; ++g) {
    ServerGroupTrace group;
    group.name = "G";
    group.name += std::to_string(g);
    group.players = util::TimeSeries(120.0, {100.0 * (g + 1), 200.0 * (g + 1)});
    region.groups.push_back(std::move(group));
  }
  world.regions.push_back(std::move(region));
  RegionalTrace region2;
  region2.name = "Australia";
  ServerGroupTrace group;
  group.players = util::TimeSeries(120.0, {10, 20});
  region2.groups.push_back(std::move(group));
  world.regions.push_back(std::move(region2));
  return world;
}

TEST(TraceTest, RegionalTotalSumsGroups) {
  const auto world = make_world();
  const auto total = world.regions[0].total();
  ASSERT_EQ(total.size(), 2u);
  EXPECT_DOUBLE_EQ(total[0], 300.0);
  EXPECT_DOUBLE_EQ(total[1], 600.0);
}

TEST(TraceTest, EmptyRegionTotalIsEmpty) {
  RegionalTrace region;
  EXPECT_TRUE(region.total().empty());
}

TEST(TraceTest, GlobalSumsAllRegions) {
  const auto world = make_world();
  const auto global = world.global();
  ASSERT_EQ(global.size(), 2u);
  EXPECT_DOUBLE_EQ(global[0], 310.0);
  EXPECT_DOUBLE_EQ(global[1], 620.0);
}

TEST(TraceTest, EmptyWorldGlobalIsEmpty) {
  WorldTrace world;
  EXPECT_TRUE(world.global().empty());
  EXPECT_EQ(world.steps(), 0u);
}

TEST(TraceTest, StepsReportsSampleCount) {
  const auto world = make_world();
  EXPECT_EQ(world.steps(), 2u);
}

TEST(TraceTest, DefaultCapacityIsRuneScapeServer) {
  ServerGroupTrace group;
  EXPECT_EQ(group.capacity, 2000u);
}

TEST(TraceTest, GenerateReservesEachSeriesOnce) {
  // Every series is sized for the whole horizon up front, so generating
  // never regrows one and holds no slack past config.steps.
  auto cfg = RuneScapeModelConfig::paper_default();
  cfg.steps = 777;
  cfg.regions.resize(2);
  for (auto& spec : cfg.regions) spec.server_groups = 3;
  auto world = generate(cfg);
  for (auto& region : world.regions) {
    for (auto& group : region.groups) {
      EXPECT_EQ(group.players.size(), cfg.steps);
      EXPECT_EQ(group.players.mutable_values().capacity(), cfg.steps)
          << group.name;
    }
  }
}

}  // namespace
}  // namespace mmog::trace
