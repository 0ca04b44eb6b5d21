#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

namespace mmog::obs {
namespace {

TEST(RegistryTest, CountersAccumulateAndStartAtZero) {
  Registry reg;
  reg.add("a");
  reg.add("a", 2.5);
  reg.add("b", -1.0);
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("a"), 3.5);
  EXPECT_DOUBLE_EQ(snap.counters.at("b"), -1.0);
  EXPECT_FALSE(snap.counters.contains("c"));
}

TEST(RegistryTest, GaugesAreLastWriteWins) {
  Registry reg;
  reg.set("load", 1.0);
  reg.set("load", 7.0);
  EXPECT_DOUBLE_EQ(reg.snapshot().gauges.at("load"), 7.0);
}

TEST(RegistryTest, MergeOnSnapshotCountsExactlyUnderContention) {
  // The merge-on-snapshot contract: N increments from K writer threads are
  // counted exactly, with each thread writing its own thread-local shard.
  Registry reg;
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kIncrements = 32000;
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (std::size_t i = 0; i < kIncrements; ++i) {
        reg.add("work.items");
        reg.observe("work.duration_us", 1.0);
      }
    });
  }
  for (auto& writer : writers) writer.join();
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("work.items"),
                   static_cast<double>(kWriters * kIncrements));
  EXPECT_EQ(snap.histograms.at("work.duration_us").count,
            kWriters * kIncrements);
}

TEST(RegistryTest, SnapshotIsSafeWhileWritersRun) {
  Registry reg;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) reg.snapshot();
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&] {
      for (std::size_t i = 0; i < 4000; ++i) reg.add("racing");
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true);
  reader.join();
  EXPECT_DOUBLE_EQ(reg.snapshot().counters.at("racing"), 4.0 * 4000.0);
}

TEST(RegistryTest, HistogramBucketBoundariesAreUpperInclusive) {
  Registry reg;
  reg.define_histogram("h", {1.0, 2.0, 5.0});
  for (double v : {0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 7.5}) reg.observe("h", v);
  const auto snap = reg.snapshot();
  const auto& h = snap.histograms.at("h");
  ASSERT_EQ(h.counts.size(), 4u);  // three bounds + overflow
  EXPECT_EQ(h.counts[0], 2u);      // (-inf, 1]: 0.5, 1.0
  EXPECT_EQ(h.counts[1], 2u);      // (1, 2]: 1.5, 2.0
  EXPECT_EQ(h.counts[2], 2u);      // (2, 5]: 3.0, 5.0
  EXPECT_EQ(h.counts[3], 1u);      // (5, inf): 7.5
  EXPECT_EQ(h.count, 7u);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 7.5);
  EXPECT_DOUBLE_EQ(h.sum, 0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 5.0 + 7.5);
}

TEST(RegistryTest, HistogramRedefinitionMustMatch) {
  Registry reg;
  reg.define_histogram("h", {1.0, 2.0});
  EXPECT_NO_THROW(reg.define_histogram("h", {1.0, 2.0}));
  EXPECT_THROW(reg.define_histogram("h", {1.0, 3.0}), std::invalid_argument);
  EXPECT_THROW(reg.define_histogram("bad", {}), std::invalid_argument);
  EXPECT_THROW(reg.define_histogram("bad", {2.0, 1.0}),
               std::invalid_argument);
}

TEST(RegistryTest, UndefinedHistogramGetsDurationBuckets) {
  Registry reg;
  reg.observe("lazy", 3.0);
  const auto snap = reg.snapshot();
  const auto& h = snap.histograms.at("lazy");
  EXPECT_EQ(h.bounds, duration_buckets_us());
  EXPECT_EQ(h.count, 1u);
}

TEST(RegistryTest, QuantileInterpolatesWithinBuckets) {
  Registry reg;
  // 1..100 into unit-wide buckets: quantiles must land within one bucket
  // width of the exact order statistic.
  std::vector<double> bounds;
  for (double b = 1.0; b <= 100.0; b += 1.0) bounds.push_back(b);
  reg.define_histogram("u", bounds);
  for (int v = 1; v <= 100; ++v) reg.observe("u", v);
  const auto snap = reg.snapshot();
  const auto& h = snap.histograms.at("u");
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 1.0, 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(RegistryTest, QuantileOfEmptyHistogramIsZero) {
  HistogramData h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(RegistryTest, LogBucketsAreGeometric) {
  const auto b = log_buckets(1.0, 8.0, 2.0);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[3], 8.0);
  EXPECT_THROW(log_buckets(0.0, 8.0, 2.0), std::invalid_argument);
  EXPECT_THROW(log_buckets(1.0, 8.0, 1.0), std::invalid_argument);
}

TEST(RegistryTest, SnapshotSerializesToJsonAndCsv) {
  Registry reg;
  reg.add("offer.matched", 3.0);
  reg.set("sim.steps", 10.0);
  reg.define_histogram("phase.step_us", {1.0, 10.0});
  reg.observe("phase.step_us", 5.0);
  const auto snap = reg.snapshot();

  const auto json = snap.to_json();
  EXPECT_NE(json.find("\"offer.matched\":3"), std::string::npos);
  EXPECT_NE(json.find("\"sim.steps\":10"), std::string::npos);
  EXPECT_NE(json.find("\"phase.step_us\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[0,1,0]"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');

  const auto csv = snap.to_csv();
  EXPECT_NE(csv.find("type,name,stat,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,offer.matched,value,3"), std::string::npos);
  EXPECT_NE(csv.find("histogram,phase.step_us,count,1"), std::string::npos);
}

TEST(RegistryTest, DistinctRegistriesAreIndependent) {
  Registry a;
  Registry b;
  a.add("x");
  b.add("x", 5.0);
  EXPECT_DOUBLE_EQ(a.snapshot().counters.at("x"), 1.0);
  EXPECT_DOUBLE_EQ(b.snapshot().counters.at("x"), 5.0);
}

}  // namespace
}  // namespace mmog::obs
