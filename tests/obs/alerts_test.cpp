#include "obs/alerts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/alert_parse.hpp"
#include "obs/jsonio.hpp"

namespace mmog::obs {
namespace {

std::vector<Sample> sample(double underalloc) {
  return {{"core.underalloc_frac", underalloc}};
}

AlertRule underalloc_rule(std::size_t for_steps) {
  return {"underalloc", "core.underalloc_frac", AlertOp::kGt, 0.01,
          for_steps};
}

TEST(AlertEngineTest, ZeroForFiresOnFirstBreachingSample) {
  AlertEngine engine({underalloc_rule(0)});
  EXPECT_TRUE(engine.observe(0, sample(0.005)).empty());
  const auto edges = engine.observe(1, sample(0.02));
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].kind, AlertTransition::Kind::kFired);
  EXPECT_EQ(edges[0].rule_name, "underalloc");
  EXPECT_EQ(edges[0].step, 1u);
  EXPECT_DOUBLE_EQ(edges[0].value, 0.02);
  EXPECT_EQ(engine.firing_count(), 1u);
}

TEST(AlertEngineTest, ForDebounceHoldsPendingThenFires) {
  AlertEngine engine({underalloc_rule(3)});
  // Breaches at steps 10..13: pending at 10, firing once the condition has
  // held for 3 steps of simulated time (step 13).
  for (std::uint64_t t = 10; t <= 12; ++t) {
    EXPECT_TRUE(engine.observe(t, sample(0.05)).empty()) << t;
    EXPECT_EQ(engine.statuses()[0].state, AlertState::kPending) << t;
  }
  const auto edges = engine.observe(13, sample(0.05));
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].kind, AlertTransition::Kind::kFired);
  const auto status = engine.statuses()[0];
  EXPECT_EQ(status.state, AlertState::kFiring);
  EXPECT_EQ(status.pending_since_step, 10u);
  EXPECT_EQ(status.firing_since_step, 13u);
}

TEST(AlertEngineTest, BreachClearingInsideDebounceNeverFires) {
  AlertEngine engine({underalloc_rule(5)});
  engine.observe(0, sample(0.05));
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kPending);
  EXPECT_TRUE(engine.observe(1, sample(0.0)).empty());
  EXPECT_EQ(engine.statuses()[0].state, AlertState::kInactive);
  EXPECT_EQ(engine.statuses()[0].fired_count, 0u);
}

TEST(AlertEngineTest, FiringResolvesWhenConditionClears) {
  AlertEngine engine({underalloc_rule(0)});
  engine.observe(0, sample(0.05));
  const auto edges = engine.observe(1, sample(0.001));
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].kind, AlertTransition::Kind::kResolved);
  const auto status = engine.statuses()[0];
  EXPECT_EQ(status.state, AlertState::kResolved);
  EXPECT_EQ(status.fired_count, 1u);
  EXPECT_EQ(status.resolved_count, 1u);
  EXPECT_EQ(status.last_resolved_step, 1u);
  // A later breach re-enters pending -> firing and counts again.
  engine.observe(2, sample(0.05));
  EXPECT_EQ(engine.statuses()[0].fired_count, 2u);
}

TEST(AlertEngineTest, MissingMetricCountsAsConditionFalse) {
  AlertEngine engine({underalloc_rule(0)});
  engine.observe(0, sample(0.05));
  EXPECT_EQ(engine.firing_count(), 1u);
  // The sample set no longer carries the metric: resolve, don't latch.
  const auto edges = engine.observe(1, {{"other.metric", 1.0}});
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].kind, AlertTransition::Kind::kResolved);
}

TEST(AlertEngineTest, JsonListsRuleAndState) {
  AlertEngine engine({underalloc_rule(0)});
  engine.observe(4, sample(0.05));
  const auto json = engine.to_json();
  EXPECT_NE(json.find("\"step\":4"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"underalloc\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\":\"core.underalloc_frac\""),
            std::string::npos);
  EXPECT_NE(json.find("\"state\":\"firing\""), std::string::npos);
  EXPECT_NE(json.find("\"fired_count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"last_value\":0.05"), std::string::npos);
}

TEST(AlertEngineTest, JsonEscapesControlBytesInNames) {
  const std::string name = "tab\there\x01" "ctl";
  const std::string metric = "core.\x01" "ctl\tfrac";
  AlertEngine engine({{name, metric, AlertOp::kGt, 0.01, 0}});
  engine.observe(0, {{metric, 0.5}});
  const auto json = engine.to_json();
  EXPECT_EQ(std::count_if(json.begin(), json.end(),
                          [](char c) {
                            return static_cast<unsigned char>(c) < 0x20;
                          }),
            0)
      << json;
  const JsonValue doc = parse_json(json);
  const auto& alert = doc.at("alerts").as_array().at(0);
  EXPECT_EQ(alert.at("name").as_string(), name);
  EXPECT_EQ(alert.at("metric").as_string(), metric);
}

TEST(AlertEngineTest, DefaultRulesCoverPaperThresholdAndAvailability) {
  const auto rules = default_alert_rules(1.0);
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].metric, "core.underalloc_frac");
  EXPECT_DOUBLE_EQ(rules[0].value, 0.01);  // the paper's 1% QoS threshold
  EXPECT_EQ(rules[0].op, AlertOp::kGt);
  EXPECT_EQ(rules[1].metric, "sla.availability_min_pct");
  EXPECT_EQ(rules[1].op, AlertOp::kLt);
}

TEST(AlertParseTest, ParsesTheIssueExample) {
  const auto rule = parse_alert_rule(
      "underalloc:metric=core.underalloc_frac,op=>,value=0.01,for=5");
  EXPECT_EQ(rule.name, "underalloc");
  EXPECT_EQ(rule.metric, "core.underalloc_frac");
  EXPECT_EQ(rule.op, AlertOp::kGt);
  EXPECT_DOUBLE_EQ(rule.value, 0.01);
  EXPECT_EQ(rule.for_steps, 5u);
}

TEST(AlertParseTest, ForAcceptsDurationSuffixes) {
  // 30 minutes = 15 two-minute steps, same units as --fault durations.
  EXPECT_EQ(parse_alert_rule("a:metric=m,value=1,for=30m").for_steps, 15u);
  EXPECT_EQ(parse_alert_rule("a:metric=m,value=1").for_steps, 0u);
}

TEST(AlertParseTest, DefaultsAndOperators) {
  EXPECT_EQ(parse_alert_rule("a:metric=m,value=2").op, AlertOp::kGt);
  EXPECT_EQ(parse_alert_rule("a:metric=m,op=<=,value=2").op, AlertOp::kLe);
  EXPECT_EQ(parse_alert_rule("a:metric=m,op=!=,value=2").op, AlertOp::kNe);
}

TEST(AlertParseTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_alert_rule("no-colon"), std::invalid_argument);
  EXPECT_THROW(parse_alert_rule(":metric=m,value=1"), std::invalid_argument);
  EXPECT_THROW(parse_alert_rule("a:value=1"), std::invalid_argument);
  EXPECT_THROW(parse_alert_rule("a:metric=m"), std::invalid_argument);
  EXPECT_THROW(parse_alert_rule("a:metric=m,op=~,value=1"),
               std::invalid_argument);
  EXPECT_THROW(parse_alert_rule("a:metric=m,value=abc"),
               std::invalid_argument);
  EXPECT_THROW(parse_alert_rule("a:metric=m,value=1,bogus=2"),
               std::invalid_argument);
}

TEST(AlertParseTest, RejectsDebouncesNoIntegerHolds) {
  for (const char* spec : {"a:metric=m,value=1,for=1e300",
                           "a:metric=m,value=1,for=inf",
                           "a:metric=m,value=1,for=-1"}) {
    EXPECT_THROW(parse_alert_rule(spec), std::invalid_argument) << spec;
  }
  // A fractional debounce still rounds down to whole steps.
  EXPECT_EQ(parse_alert_rule("a:metric=m,value=1,for=5m").for_steps, 2u);
}

TEST(AlertParseTest, ListSplitsOnSemicolonsAndRoundTrips) {
  const auto rules = parse_alert_rules(
      "a:metric=m,value=1;b:metric=n,op=<,value=2,for=3");
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(describe(rules[0]), "a:metric=m,op=>,value=1");
  EXPECT_EQ(describe(rules[1]), "b:metric=n,op=<,value=2,for=3");
  EXPECT_TRUE(parse_alert_rules("").empty());
  const auto reparsed = parse_alert_rule(describe(rules[1]));
  EXPECT_EQ(reparsed.op, rules[1].op);
  EXPECT_EQ(reparsed.for_steps, rules[1].for_steps);
}

}  // namespace
}  // namespace mmog::obs
