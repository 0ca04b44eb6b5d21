// Self-tests of the benchmark driver: the statistics it reports, span self
// time, the metric catalog against BENCHMARK.json, and a smoke run of every
// workload through its output checks.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "driver/metrics.hpp"
#include "driver/spans.hpp"
#include "driver/stats.hpp"
#include "driver/workload.hpp"
#include "obs/jsonio.hpp"

namespace perfbench {
namespace {

// Expected values are Python's statistics.median / statistics.quantiles.
TEST(StatsTest, MatchesPythonStatistics) {
  EXPECT_DOUBLE_EQ(median({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5);
  EXPECT_DOUBLE_EQ(median({3.5, 1.0, 2.0}), 2.0);
  const auto q10 = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q10[0], 2.75);
  EXPECT_DOUBLE_EQ(q10[1], 5.5);
  EXPECT_DOUBLE_EQ(q10[2], 8.25);
  const auto q3 = quartiles({3.5, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(q3[0], 1.0);
  EXPECT_DOUBLE_EQ(q3[2], 3.5);
  // Two values extrapolate beyond the data, as Python does.
  const auto q2 = quartiles({5.0, 1.0});
  EXPECT_DOUBLE_EQ(q2[0], 0.0);
  EXPECT_DOUBLE_EQ(q2[1], 3.0);
  EXPECT_DOUBLE_EQ(q2[2], 6.0);
  const auto q7 = quartiles({10.0, 12.0, 11.0, 13.0, 40.0, 9.0, 10.5});
  EXPECT_DOUBLE_EQ(q7[0], 10.0);
  EXPECT_DOUBLE_EQ(q7[2], 13.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(quartiles({4.0})[2], 4.0);
}

Span make_span(std::string name, double start, double end, int parent) {
  Span span;
  span.name = std::move(name);
  span.start_s = start;
  span.end_s = end;
  span.parent = parent;
  return span;
}

TEST(SpansTest, SelfTimeSubtractsTheUnionOfChildren) {
  const std::vector<Span> spans = {
      make_span("core.simulate", 0.0, 10.0, -1),
      make_span("ckpt.to_jsonl", 1.0, 3.0, 0),
      make_span("ckpt.to_jsonl", 2.0, 5.0, 0),   // overlaps the first child
      make_span("ckpt.write", 8.0, 12.0, 0),     // clipped to the parent
      make_span("obs.count", 3.5, 4.5, 2),       // grandchild
      make_span("trace.generate", 20.0, 21.5, -1),
  };
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
  EXPECT_DOUBLE_EQ(self[5], 1.5);
  const auto layers = self_time_by_layer(spans);
  EXPECT_DOUBLE_EQ(layers.at("core"), 4.0);
  EXPECT_DOUBLE_EQ(layers.at("ckpt"), 8.0);
  EXPECT_DOUBLE_EQ(layers.at("obs"), 1.0);
  EXPECT_DOUBLE_EQ(layers.at("trace"), 1.5);
}

TEST(SpansTest, RecorderNestsAndInheritsThePass) {
  SpanRecorder recorder(true);
  {
    const SpanScope pass(recorder, "core.simulate", 7);
    const SpanScope sink(recorder, "ckpt.to_jsonl");
  }
  const SpanScope later(recorder, "trace.read_csv");
  ASSERT_EQ(recorder.spans().size(), 3u);
  EXPECT_EQ(recorder.spans()[1].parent, 0);
  EXPECT_EQ(recorder.spans()[1].pass, 7);
  EXPECT_EQ(recorder.spans()[2].parent, -1);
  EXPECT_EQ(recorder.spans()[2].pass, -1);
  EXPECT_EQ(recorder.spans()[1].layer(), "ckpt");
  EXPECT_GE(recorder.spans()[0].end_s, recorder.spans()[1].end_s);

  SpanRecorder off(false);
  { const SpanScope ignored(off, "core.simulate", 0); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(MetricsTest, CatalogNamesAreValidUniqueAndMatchBenchmarkJson) {
  std::set<std::string> names;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& def : *list) {
      EXPECT_TRUE(valid_metric(def)) << def.name;
      EXPECT_TRUE(names.insert(def.name).second) << "duplicate " << def.name;
    }
  }
  EXPECT_FALSE(valid_metric({"bad name", "s", "lower"}));
  EXPECT_FALSE(valid_metric({"ok", "", "lower"}));
  EXPECT_FALSE(valid_metric({".lead", "s", "lower"}));

  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in) << PERFBENCH_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = mmog::obs::parse_json(text.str());
  const auto expect_same = [](const mmog::obs::JsonValue& listed,
                              const std::vector<MetricDef>& catalog) {
    ASSERT_EQ(listed.as_array().size(), catalog.size());
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      const auto& entry = listed.as_array()[i];
      EXPECT_EQ(entry.at("name").as_string(), catalog[i].name);
      EXPECT_EQ(entry.at("unit").as_string(), catalog[i].unit);
      EXPECT_EQ(entry.at("better").as_string(), catalog[i].better);
    }
  };
  expect_same(doc.at("end_to_end"), end_to_end_metrics());
  expect_same(doc.at("per_layer"), per_layer_metrics());
}

TEST(MetricsTest, ResultLineHasTheContractKeys) {
  Metric m;
  m.name = "setup_s";
  m.unit = "s";
  m.value = 0.25;
  const auto doc = mmog::obs::parse_json(result_json(true, 4, 0, {m}));
  ASSERT_EQ(doc.members().size(), 4u);
  EXPECT_TRUE(doc.at("correct").as_bool());
  EXPECT_EQ(doc.at("attempted").as_number(), 4.0);
  EXPECT_EQ(doc.at("failed").as_number(), 0.0);
  EXPECT_EQ(doc.at("metrics").at("setup_s").at("value").as_number(), 0.25);
  EXPECT_EQ(doc.at("metrics").at("setup_s").at("unit").as_string(), "s");
}

class SmokeTest : public ::testing::TestWithParam<Workload> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::current_path() /
           ("perfbench-smoke-" + std::string(workload_name(GetParam())));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  RunOptions tiny(bool trace = false) const {
    RunOptions o;
    o.workload = GetParam();
    o.seed = 11;
    o.seconds = 0.01;
    o.trace = trace;
    o.groups = 120;
    o.steps = 60;
    o.work_dir = dir_.string();
    return o;
  }

  std::filesystem::path dir_;
};

TEST_P(SmokeTest, CleanRunPassesEveryCheck) {
  const RunResult result = run_workload(tiny());
  for (const auto& note : result.notes) ADD_FAILURE() << note;
  EXPECT_TRUE(result.correct);
  EXPECT_EQ(result.failed, 0u);
  // First pass, three timed passes and at least one restore round.
  EXPECT_GE(result.attempted, 5u);
  ASSERT_EQ(result.metrics.size(), end_to_end_metrics().size());
  for (const auto& metric : result.metrics) {
    EXPECT_GT(metric.value, 0.0) << metric.name;
    EXPECT_GE(metric.samples, 1u) << metric.name;
  }
}

TEST_P(SmokeTest, CorruptedOutcomeCountsAsFailed) {
  RunOptions o = tiny();
  o.tamper = [](std::size_t pass, mmog::obs::RunReport& report) {
    if (pass == 2) report.outcome.total_cost += 1.0;
  };
  const RunResult result = run_workload(o);
  EXPECT_FALSE(result.correct);
  EXPECT_EQ(result.failed, 1u);
}

TEST_P(SmokeTest, PinnedOutcomeIsEnforced) {
  RunOptions pin = tiny();
  pin.pin_out =
      (dir_ / (std::string(workload_name(GetParam())) + ".json")).string();
  ASSERT_TRUE(run_workload(pin).correct);

  RunOptions checked = tiny();
  checked.pinned_dir = dir_.string();
  EXPECT_TRUE(run_workload(checked).correct);

  checked.tamper = [](std::size_t pass, mmog::obs::RunReport& report) {
    if (pass == 0) report.outcome.significant_events += 1;
  };
  const RunResult result = run_workload(checked);
  EXPECT_FALSE(result.correct);
  EXPECT_GE(result.failed, 1u);
}

TEST_P(SmokeTest, TracedRunReportsEveryLayerMetric) {
  const RunResult result = run_workload(tiny(true));
  EXPECT_TRUE(result.correct);
  ASSERT_EQ(result.metrics.size(), per_layer_metrics().size());
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    EXPECT_EQ(result.metrics[i].name, per_layer_metrics()[i].name);
    EXPECT_GE(result.metrics[i].samples, 1u) << result.metrics[i].name;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeTest,
                         ::testing::Values(Workload::kFleet, Workload::kPaper,
                                           Workload::kChaos),
                         [](const auto& info) {
                           return std::string(workload_name(info.param));
                         });

}  // namespace
}  // namespace perfbench
