#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "obs/jsonio.hpp"

namespace mmog::obs {
namespace {

TEST(TimeSeriesTest, StoresAtFullResolutionBelowCapacity) {
  TimeSeriesBuffer buf(8);
  for (double v : {1.0, 2.0, 3.0}) buf.push(v);
  EXPECT_EQ(buf.stride(), 1u);
  EXPECT_EQ(buf.samples_seen(), 3u);
  EXPECT_EQ(buf.points(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_FALSE(buf.partial(nullptr));
}

TEST(TimeSeriesTest, CompactionHalvesResolutionAndDoublesStride) {
  TimeSeriesBuffer buf(4);
  for (int i = 1; i <= 4; ++i) buf.push(i);  // fills: compacts to pairs
  EXPECT_EQ(buf.stride(), 2u);
  EXPECT_EQ(buf.points(), (std::vector<double>{1.5, 3.5}));

  buf.push(10.0);  // half a stride-2 window: partial, no new point yet
  EXPECT_EQ(buf.points().size(), 2u);
  double tail = 0.0;
  ASSERT_TRUE(buf.partial(&tail));
  EXPECT_DOUBLE_EQ(tail, 10.0);

  buf.push(20.0);  // completes the window as the mean of both samples
  EXPECT_EQ(buf.points(), (std::vector<double>{1.5, 3.5, 15.0}));
  EXPECT_FALSE(buf.partial(nullptr));
}

TEST(TimeSeriesTest, LongRunsAlwaysFitInCapacityPoints) {
  TimeSeriesBuffer buf(16);
  for (int i = 0; i < 100000; ++i) buf.push(1.0);
  EXPECT_LT(buf.points().size(), 16u);
  EXPECT_EQ(buf.samples_seen(), 100000u);
  // 100000 / 16 rounds up to the next power of two.
  EXPECT_EQ(buf.stride(), 8192u);
  for (double p : buf.points()) EXPECT_DOUBLE_EQ(p, 1.0);
}

TEST(TimeSeriesTest, OddCapacityIsRoundedUpToEven) {
  TimeSeriesBuffer buf(5);
  EXPECT_EQ(buf.capacity(), 6u);
  TimeSeriesBuffer tiny(0);
  EXPECT_EQ(tiny.capacity(), 2u);
}

TEST(TimeSeriesTest, StoreCreatesSeriesOnFirstAppend) {
  TimeSeriesStore store(8);
  std::vector<Sample> samples = {{"a", 1.0}, {"b", 2.0}};
  store.append(0, samples);
  samples[0].value = 3.0;
  store.append(1, samples);
  EXPECT_EQ(store.series_count(), 2u);
  EXPECT_EQ(store.names(), (std::vector<std::string>{"a", "b"}));
}

TEST(TimeSeriesTest, JsonCarriesStrideStartStepAndPoints) {
  TimeSeriesStore store(4);
  std::vector<Sample> samples = {{"core.allocated_cpu", 0.0}};
  for (int t = 0; t < 5; ++t) {
    samples[0].value = t;
    store.append(static_cast<std::uint64_t>(t), samples);
  }
  const auto json = store.to_json();
  EXPECT_NE(json.find("\"name\":\"core.allocated_cpu\""), std::string::npos);
  EXPECT_NE(json.find("\"start_step\":0"), std::string::npos);
  EXPECT_NE(json.find("\"stride\":2"), std::string::npos);
  EXPECT_NE(json.find("\"samples_seen\":5"), std::string::npos);
  // Points 0..3 compacted to {0.5, 2.5}; sample 4 rides as the partial.
  EXPECT_NE(json.find("\"points\":[0.5,2.5,4]"), std::string::npos);
}

TEST(TimeSeriesTest, CsvEscapesAwkwardSeriesNames) {
  TimeSeriesStore store(4);
  store.append(7, {{"metric,with \"quotes\"", 1.0}});
  const auto csv = store.to_csv();
  EXPECT_NE(csv.find("name,step,value\n"), std::string::npos);
  EXPECT_NE(csv.find("\"metric,with \"\"quotes\"\"\",7,1"),
            std::string::npos);
}

TEST(TimeSeriesTest, JsonEscapesControlBytesInSeriesNames) {
  // Series names embed game names (sla.availability_pct.<game>).
  const std::string name = "sla.availability_pct.tab\tgame\x01" "ctl";
  TimeSeriesStore store(4);
  store.append(0, {{name, 1.0}});
  const auto json = store.to_json();
  EXPECT_EQ(std::count_if(json.begin(), json.end(),
                          [](char c) {
                            return static_cast<unsigned char>(c) < 0x20;
                          }),
            0)
      << json;
  const JsonValue doc = parse_json(json);
  const auto& series = doc.at("series").as_array().at(0);
  EXPECT_EQ(series.at("name").as_string(), name);
}

}  // namespace
}  // namespace mmog::obs
