// Canonical run reports: golden stable-schema JSON, parse round-trip,
// config fingerprinting, and the diff verdicts mmog_diff builds on.

#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace mmog::obs {
namespace {

RunReport sample_report() {
  RunReport report;
  report.tool = "mmog_simulate";
  report.label = "seed9/dynamic";
  report.config = {{"mode", "dynamic"},
                   {"predictor", "last_value"},
                   {"safety_factor", "0.5"}};
  report.outcome.steps = 720;
  report.outcome.over_allocation_pct = 27.5;
  report.outcome.under_allocation_pct = 0.125;
  report.outcome.significant_events = 4;
  report.outcome.unplaced_cpu_unit_steps = 1.5;
  report.outcome.total_cost = 12345.5;
  report.outcome.fault_windows = 2;
  report.outcome.availability_pct = 99.5;
  report.outcome.sla_steps = 720;
  report.outcome.downtime_steps = 3;
  report.outcome.breach_episodes = 2;
  report.outcome.longest_breach_steps = 2;
  report.outcome.recoveries = 2;
  report.outcome.mean_time_to_recover_steps = 1.5;
  report.outcome.max_time_to_recover_steps = 2;
  report.outcome.alerts_fired = 1;
  report.outcome.alerts_resolved = 1;
  report.outcome.audit_records = 1440;
  report.outcome.counters = {{"alloc.granted", 321.0},
                             {"offer.rejected.amount", 7.0}};
  report.phases = {{"match", 720, 12.5, 11.0, 20.0, 30.0, 45.5, 96.0,
                    8192.0}};
  report.wall_seconds = 0.25;
  report.peak_rss_kb = 20480;
  report.steps_per_sec = 2880.0;
  report.threads = 4;
  return report;
}

// The whole point of the schema: a default-constructed report serializes to
// exactly these bytes, version "1", fixed key order. Changing this string
// is a schema break and must bump kSchemaVersion.
TEST(RunReportTest, GoldenEmptyReportJson) {
  RunReport report;
  report.tool = "t";
  EXPECT_EQ(
      report.to_json(),
      "{\"schema\":1,\"tool\":\"t\",\"label\":\"\",\"config\":{},"
      "\"fingerprint\":\"cbf29ce484222325\",\"outcome\":{\"steps\":0,"
      "\"over_allocation_pct\":0,\"under_allocation_pct\":0,"
      "\"significant_events\":0,\"unplaced_cpu_unit_steps\":0,"
      "\"total_cost\":0,\"fault_windows\":0,\"sla\":{"
      "\"availability_pct\":100,\"steps\":0,\"downtime_steps\":0,"
      "\"shed_steps\":0,\"breach_episodes\":0,\"longest_breach_steps\":0,"
      "\"recoveries\":0,\"mean_time_to_recover_steps\":0,"
      "\"max_time_to_recover_steps\":0},\"alerts\":{\"fired\":0,"
      "\"resolved\":0,\"firing\":0},\"audit_records\":0,\"counters\":{}},"
      "\"timing\":{\"threads\":1,\"wall_seconds\":0,\"peak_rss_kb\":0,"
      "\"steps_per_sec\":0,\"phases\":[]}}");
}

// The same schema with every section populated: config, outcome counters
// and a profiled phase.
TEST(RunReportTest, GoldenSampleReportJson) {
  EXPECT_EQ(
      sample_report().to_json(),
      "{\"schema\":1,\"tool\":\"mmog_simulate\",\"label\":\"seed9/dynamic\","
      "\"config\":{\"mode\":\"dynamic\",\"predictor\":\"last_value\","
      "\"safety_factor\":\"0.5\"},\"fingerprint\":\"ff3bad8a698f9dc3\","
      "\"outcome\":{\"steps\":720,\"over_allocation_pct\":27.5,"
      "\"under_allocation_pct\":0.125,\"significant_events\":4,"
      "\"unplaced_cpu_unit_steps\":1.5,\"total_cost\":12345.5,"
      "\"fault_windows\":2,\"sla\":{\"availability_pct\":99.5,\"steps\":720,"
      "\"downtime_steps\":3,\"shed_steps\":0,\"breach_episodes\":2,"
      "\"longest_breach_steps\":2,\"recoveries\":2,"
      "\"mean_time_to_recover_steps\":1.5,\"max_time_to_recover_steps\":2},"
      "\"alerts\":{\"fired\":1,\"resolved\":1,\"firing\":0},"
      "\"audit_records\":1440,\"counters\":{\"alloc.granted\":321,"
      "\"offer.rejected.amount\":7}},\"timing\":{\"threads\":4,"
      "\"wall_seconds\":0.25,\"peak_rss_kb\":20480,\"steps_per_sec\":2880,"
      "\"phases\":[{\"name\":\"match\",\"count\":720,\"mean_us\":12.5,"
      "\"p50_us\":11,\"p90_us\":20,\"p99_us\":30,\"max_us\":45.5,"
      "\"allocs_mean\":96,\"alloc_bytes_mean\":8192}]}}");
}

TEST(RunReportTest, ParseRoundTripsToIdenticalJson) {
  const auto report = sample_report();
  const auto parsed = RunReport::parse(report.to_json());
  EXPECT_EQ(parsed.to_json(), report.to_json());
  EXPECT_EQ(parsed.outcome, report.outcome);
  EXPECT_EQ(parsed.config, report.config);
  EXPECT_EQ(parsed.threads, 4u);
  ASSERT_EQ(parsed.phases.size(), 1u);
  EXPECT_EQ(parsed.phases[0].name, "match");
  EXPECT_DOUBLE_EQ(parsed.phases[0].p99_us, 30.0);
}

TEST(RunReportTest, ParseAcceptsPreProfilerReports) {
  // The profiler fields are additive within schema 1: a report written
  // before them must still parse, with zero defaults.
  auto json = sample_report().to_json();
  for (const std::string cut :
       {",\"steps_per_sec\":2880", ",\"allocs_mean\":96",
        ",\"alloc_bytes_mean\":8192"}) {
    const auto pos = json.find(cut);
    ASSERT_NE(pos, std::string::npos) << cut;
    json.erase(pos, cut.size());
  }
  const auto parsed = RunReport::parse(json);
  EXPECT_DOUBLE_EQ(parsed.steps_per_sec, 0.0);
  ASSERT_EQ(parsed.phases.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.phases[0].allocs_mean, 0.0);
  EXPECT_DOUBLE_EQ(parsed.phases[0].alloc_bytes_mean, 0.0);
  EXPECT_EQ(parsed.outcome, sample_report().outcome);
}

TEST(RunReportTest, ParseRejectsWrongSchemaAndGarbage) {
  EXPECT_THROW(RunReport::parse("nope"), std::invalid_argument);
  auto json = sample_report().to_json();
  json.replace(json.find("\"schema\":1"), 10, "\"schema\":9");
  EXPECT_THROW(RunReport::parse(json), std::invalid_argument);
}

TEST(RunReportTest, ParseRejectsIntegersItCannotHold) {
  const auto json = sample_report().to_json();
  for (const auto& [from, to] :
       {std::pair{"\"steps\":720,", "\"steps\":-5,"},
        std::pair{"\"peak_rss_kb\":20480", "\"peak_rss_kb\":1e300"},
        std::pair{"\"count\":720", "\"count\":0.5"}}) {
    auto text = json;
    const auto pos = text.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    text.replace(pos, std::string_view(from).size(), to);
    EXPECT_THROW(RunReport::parse(text), std::invalid_argument) << to;
  }
}

TEST(RunReportTest, FileParserAcceptsObjectOrLabeledArray) {
  const auto report = sample_report();
  EXPECT_EQ(parse_report_file(report.to_json()).size(), 1u);
  auto second = report;
  second.label = "seed9/static";
  const auto parsed = parse_report_file(reports_to_json({report, second}));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].label, "seed9/dynamic");
  EXPECT_EQ(parsed[1].label, "seed9/static");
  EXPECT_THROW(parse_report_file("42"), std::invalid_argument);
}

TEST(RunReportTest, FingerprintHashesExactlyTheConfig) {
  auto a = sample_report();
  auto b = sample_report();
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint().size(), 16u);
  // Execution details and outcomes do not move the fingerprint ...
  b.threads = 16;
  b.wall_seconds = 99.0;
  b.outcome.total_cost = 0.0;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // ... but any config entry does.
  b.config["safety_factor"] = "0.9";
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(RunReportTest, SummaryTextIsRenderedFromTheReport) {
  const auto text = sample_report().summary_text();
  EXPECT_NE(text.find("steps                  720"), std::string::npos);
  EXPECT_NE(text.find("CPU over-allocation    27.50 %"), std::string::npos);
  EXPECT_NE(text.find("CPU under-allocation   0.125 %"), std::string::npos);
  EXPECT_NE(text.find("renting cost           12345.5"), std::string::npos);
  EXPECT_NE(text.find("fault windows        2"), std::string::npos);
  EXPECT_NE(text.find("availability         99.500 %"), std::string::npos);
  // A clean run prints no SLA block at all.
  RunReport clean;
  EXPECT_EQ(clean.summary_text().find("SLA"), std::string::npos);
}

TEST(RunReportDiffTest, IdenticalReportsPass) {
  const auto diff = diff_reports(sample_report(), sample_report(), 10.0);
  EXPECT_FALSE(diff.regression());
  EXPECT_TRUE(diff.notes.empty());
}

TEST(RunReportDiffTest, AnyOutcomeDriftIsARegression) {
  const auto a = sample_report();
  auto b = sample_report();
  b.outcome.under_allocation_pct += 1e-12;  // bit drift is enough
  const auto diff = diff_reports(a, b);
  EXPECT_TRUE(diff.regression());
  EXPECT_FALSE(diff.outcome_identical);
  ASSERT_EQ(diff.notes.size(), 1u);
  EXPECT_NE(diff.notes[0].find("under_allocation_pct"), std::string::npos);
}

TEST(RunReportDiffTest, ConfigAndCounterDriftAreNamed) {
  const auto a = sample_report();
  auto b = sample_report();
  b.config.erase("predictor");
  b.config["mode"] = "static";
  b.outcome.counters["alloc.granted"] = 1.0;
  const auto diff = diff_reports(a, b);
  EXPECT_TRUE(diff.regression());
  std::string joined;
  for (const auto& note : diff.notes) joined += note + '\n';
  EXPECT_NE(joined.find("config.mode"), std::string::npos);
  EXPECT_NE(joined.find("config.predictor: only in first"),
            std::string::npos);
  EXPECT_NE(joined.find("counter alloc.granted"), std::string::npos);
}

TEST(RunReportDiffTest, TimingComparedOnlyAgainstTolerance) {
  const auto a = sample_report();
  auto b = sample_report();
  b.phases[0].p50_us = a.phases[0].p50_us * 3.0;
  // No tolerance given: timing is never a regression.
  EXPECT_FALSE(diff_reports(a, b).regression());
  // 200 % drift vs a 10 % budget: timing regression, outcome still clean.
  const auto tight = diff_reports(a, b, 10.0);
  EXPECT_TRUE(tight.regression());
  EXPECT_TRUE(tight.outcome_identical);
  EXPECT_FALSE(tight.timing_ok);
  // A generous budget passes.
  EXPECT_FALSE(diff_reports(a, b, 500.0).regression());
}

TEST(RunReportTest, PeakRssIsReportedOnThisPlatform) {
  EXPECT_GT(current_peak_rss_kb(), 0u);
}

}  // namespace
}  // namespace mmog::obs
