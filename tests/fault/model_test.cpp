// Fault model: deterministic schedule generation, validation and the CLI
// spec grammar.

#include <gtest/gtest.h>

#include <stdexcept>

#include "fault/model.hpp"
#include "fault/parse.hpp"
#include "util/units.hpp"

namespace mmog::fault {
namespace {

FaultSpec stochastic_outage(std::size_t dc = 0, std::uint64_t seed = 7) {
  FaultSpec spec;
  spec.kind = FaultKind::kOutage;
  spec.dc_index = dc;
  spec.mtbf_steps = 300.0;
  spec.mttr_steps = 30.0;
  spec.seed = seed;
  return spec;
}

TEST(FaultSpecValidationTest, AcceptsStochasticAndFixedForms) {
  EXPECT_NO_THROW(validate(stochastic_outage(), 3));
  FaultSpec fixed;
  fixed.window_from = 10;
  fixed.window_to = 20;
  EXPECT_NO_THROW(validate(fixed, 1));
}

TEST(FaultSpecValidationTest, RejectsOutOfRangeDcIndex) {
  EXPECT_THROW(validate(stochastic_outage(/*dc=*/3), 3),
               std::invalid_argument);
}

TEST(FaultSpecValidationTest, RejectsInvertedOrMissingTiming) {
  FaultSpec bad;           // neither window nor mtbf/mttr
  EXPECT_THROW(validate(bad, 1), std::invalid_argument);
  bad.window_from = 20;    // inverted window
  bad.window_to = 10;
  EXPECT_THROW(validate(bad, 1), std::invalid_argument);
  auto no_mttr = stochastic_outage();
  no_mttr.mttr_steps = 0.0;
  EXPECT_THROW(validate(no_mttr, 1), std::invalid_argument);
}

TEST(FaultSpecValidationTest, RejectsKindSpecificSeverityRanges) {
  auto cap = stochastic_outage();
  cap.kind = FaultKind::kCapacityLoss;
  cap.severity = 1.0;  // keeping everything is not a fault
  EXPECT_THROW(validate(cap, 1), std::invalid_argument);
  cap.severity = 0.5;
  EXPECT_NO_THROW(validate(cap, 1));

  auto lat = stochastic_outage();
  lat.kind = FaultKind::kLatencyDegradation;
  lat.severity = 0.0;
  EXPECT_THROW(validate(lat, 1), std::invalid_argument);
  lat.severity = 2.0;
  EXPECT_NO_THROW(validate(lat, 1));

  auto weird = stochastic_outage();
  weird.distribution = FaultDistribution::kWeibull;
  weird.weibull_shape = 0.0;
  EXPECT_THROW(validate(weird, 1), std::invalid_argument);
}

TEST(FaultGenerationTest, SameSpecSameSchedule) {
  const auto spec = stochastic_outage();
  const auto a = generate_events(spec, 5000);
  const auto b = generate_events(spec, 5000);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(FaultGenerationTest, SeedAndTargetDecorrelateSchedules) {
  const auto base = generate_events(stochastic_outage(0, 7), 5000);
  const auto reseeded = generate_events(stochastic_outage(0, 8), 5000);
  const auto retargeted = generate_events(stochastic_outage(1, 7), 5000);
  EXPECT_NE(base, reseeded);
  // Same seed on another center must not replay the same timing.
  ASSERT_FALSE(base.empty());
  ASSERT_FALSE(retargeted.empty());
  EXPECT_NE(base.front().from_step, retargeted.front().from_step);
}

TEST(FaultGenerationTest, EventsAreWellFormedAndInsideHorizon) {
  const std::size_t horizon = 5000;
  for (const auto dist :
       {FaultDistribution::kExponential, FaultDistribution::kWeibull}) {
    auto spec = stochastic_outage();
    spec.distribution = dist;
    spec.weibull_shape = 0.7;
    const auto events = generate_events(spec, horizon);
    ASSERT_FALSE(events.empty());
    for (const auto& ev : events) {
      EXPECT_LT(ev.from_step, ev.to_step);
      EXPECT_LE(ev.to_step, horizon);
      EXPECT_EQ(ev.dc_index, spec.dc_index);
      EXPECT_EQ(ev.kind, spec.kind);
    }
  }
}

TEST(FaultGenerationTest, MeanDurationTracksMttr) {
  auto spec = stochastic_outage();
  spec.mtbf_steps = 50.0;
  spec.mttr_steps = 20.0;
  const auto events = generate_events(spec, 200000);
  ASSERT_GT(events.size(), 100u);
  double total = 0.0;
  for (const auto& ev : events) {
    total += static_cast<double>(ev.to_step - ev.from_step);
  }
  const double mean = total / static_cast<double>(events.size());
  EXPECT_GT(mean, 0.5 * spec.mttr_steps);
  EXPECT_LT(mean, 2.0 * spec.mttr_steps);
}

TEST(FaultGenerationTest, FixedWindowIsClampedToHorizon) {
  FaultSpec spec;
  spec.window_from = 10;
  spec.window_to = 500;
  const auto events = generate_events(spec, 100);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].from_step, 10u);
  EXPECT_EQ(events[0].to_step, 100u);
  EXPECT_TRUE(generate_events(spec, 10).empty());  // starts at the horizon
}

TEST(FaultScheduleTest, QueriesReflectActiveWindows) {
  std::vector<FaultSpec> specs;
  FaultSpec outage;
  outage.window_from = 10;
  outage.window_to = 20;
  specs.push_back(outage);
  FaultSpec cap;
  cap.kind = FaultKind::kCapacityLoss;
  cap.dc_index = 1;
  cap.severity = 0.25;
  cap.window_from = 5;
  cap.window_to = 15;
  specs.push_back(cap);
  FaultSpec flap;
  flap.kind = FaultKind::kGrantFlap;
  flap.dc_index = 1;
  flap.window_from = 12;
  flap.window_to = 14;
  specs.push_back(flap);
  FaultSpec lat;
  lat.kind = FaultKind::kLatencyDegradation;
  lat.dc_index = 2;
  lat.severity = 2.0;
  lat.window_from = 0;
  lat.window_to = 30;
  specs.push_back(lat);

  const auto schedule = FaultSchedule::generate(specs, 3, 100);
  EXPECT_FALSE(schedule.empty());
  EXPECT_EQ(schedule.events().size(), 4u);

  EXPECT_TRUE(schedule.outage_at(0, 10));
  EXPECT_TRUE(schedule.outage_at(0, 19));
  EXPECT_FALSE(schedule.outage_at(0, 20));
  EXPECT_FALSE(schedule.outage_at(1, 10));
  EXPECT_TRUE(schedule.grants_blocked_at(0, 15));

  EXPECT_DOUBLE_EQ(schedule.capacity_fraction_at(1, 7), 0.25);
  EXPECT_DOUBLE_EQ(schedule.capacity_fraction_at(1, 20), 1.0);
  EXPECT_TRUE(schedule.flap_at(1, 12));
  EXPECT_TRUE(schedule.grants_blocked_at(1, 12));
  EXPECT_FALSE(schedule.grants_blocked_at(1, 20));

  EXPECT_EQ(schedule.latency_penalty_at(2, 5), 2u);
  EXPECT_EQ(schedule.latency_penalty_at(2, 30), 0u);
  // Out-of-range queries degrade to "healthy", never crash.
  EXPECT_FALSE(schedule.outage_at(99, 10));
  EXPECT_DOUBLE_EQ(schedule.capacity_fraction_at(99, 10), 1.0);
}

TEST(FaultScheduleTest, EventsAreSortedByStart) {
  auto early = stochastic_outage(0, 3);
  auto late = stochastic_outage(1, 4);
  const auto schedule = FaultSchedule::generate({late, early}, 2, 5000);
  const auto& events = schedule.events();
  ASSERT_GT(events.size(), 1u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].from_step, events[i].from_step);
  }
}

TEST(FaultScheduleTest, LegacyFixedEventsAreClampedOrDropped) {
  const std::vector<FaultEvent> fixed = {
      {FaultKind::kOutage, 0, 50, 500, 1.0},
      {FaultKind::kOutage, 1, 300, 400, 1.0},  // beyond the horizon
  };
  const auto schedule = FaultSchedule::generate({}, 2, 100, fixed);
  ASSERT_EQ(schedule.events().size(), 1u);
  EXPECT_EQ(schedule.events()[0].to_step, 100u);
  EXPECT_THROW(
      FaultSchedule::generate({}, 2, 100,
                              {{FaultKind::kOutage, 5, 1, 2, 1.0}}),
      std::invalid_argument);
}

TEST(FaultParseTest, ParsesDurationsWithSuffixes) {
  // One step is 120 s.
  EXPECT_DOUBLE_EQ(parse_duration_steps("90"), 90.0);
  EXPECT_DOUBLE_EQ(parse_duration_steps("240s"), 2.0);
  EXPECT_DOUBLE_EQ(parse_duration_steps("30m"), 15.0);
  EXPECT_DOUBLE_EQ(parse_duration_steps("2h"), 60.0);
  EXPECT_DOUBLE_EQ(parse_duration_steps("4d"), 4.0 * 720.0);
  EXPECT_DOUBLE_EQ(parse_duration_steps("1w"), 7.0 * 720.0);
  EXPECT_THROW(parse_duration_steps("abc"), std::invalid_argument);
  EXPECT_THROW(parse_duration_steps(""), std::invalid_argument);
  EXPECT_THROW(parse_duration_steps("0"), std::invalid_argument);
  EXPECT_DOUBLE_EQ(parse_duration_steps("0", /*allow_zero=*/true), 0.0);
}

TEST(FaultParseTest, ParsesTheReadmeExample) {
  const auto spec = parse_fault_spec("outage:dc=2,mtbf=4d,mttr=2h,seed=9");
  EXPECT_EQ(spec.kind, FaultKind::kOutage);
  EXPECT_EQ(spec.dc_index, 2u);
  EXPECT_DOUBLE_EQ(spec.mtbf_steps, 4.0 * 720.0);
  EXPECT_DOUBLE_EQ(spec.mttr_steps, 60.0);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_FALSE(spec.fixed_window());
}

TEST(FaultParseTest, ParsesKindSpecificKeysAndFixedWindows) {
  const auto cap = parse_fault_spec("capacity:dc=1,from=0,to=10,keep=0.3");
  EXPECT_EQ(cap.kind, FaultKind::kCapacityLoss);
  EXPECT_TRUE(cap.fixed_window());
  EXPECT_EQ(cap.window_from, 0u);
  EXPECT_EQ(cap.window_to, 10u);
  EXPECT_DOUBLE_EQ(cap.severity, 0.3);

  const auto lat =
      parse_fault_spec("latency:dc=0,mtbf=1d,mttr=1h,classes=2");
  EXPECT_EQ(lat.kind, FaultKind::kLatencyDegradation);
  EXPECT_DOUBLE_EQ(lat.severity, 2.0);

  const auto wb =
      parse_fault_spec("flap:dc=0,mtbf=1d,mttr=2m,dist=weibull,shape=0.8");
  EXPECT_EQ(wb.distribution, FaultDistribution::kWeibull);
  EXPECT_DOUBLE_EQ(wb.weibull_shape, 0.8);
}

TEST(FaultParseTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_spec("outage"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("meteor:dc=0,mtbf=1d,mttr=1h"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("outage:mtbf=1d,mttr=1h"),  // no dc
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("outage:dc=0"),  // no timing
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("outage:dc=0,wat=1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("outage:dc=0,mtbf"), std::invalid_argument);
}

TEST(FaultParseTest, RejectsIndicesNoIntegerHolds) {
  // Each of these used to reach an unchecked double-to-integer cast.
  for (const char* spec :
       {"outage:dc=1e300,mtbf=1d,mttr=1h", "outage:dc=-1,mtbf=1d,mttr=1h",
        "outage:dc=nan,mtbf=1d,mttr=1h", "outage:dc=1.5,mtbf=1d,mttr=1h",
        "outage:dc=0,mtbf=1d,mttr=1h,seed=-5",
        "outage:dc=0,mtbf=1d,mttr=1h,seed=1e300",
        "outage:dc=0,from=0,to=1e300", "outage:dc=0,from=inf,to=10"}) {
    EXPECT_THROW(parse_fault_spec(spec), std::invalid_argument) << spec;
  }
  // Window bounds still round a fractional step down.
  const auto spec = parse_fault_spec("outage:dc=2,from=90s,to=5m,seed=7");
  EXPECT_EQ(spec.dc_index, 2u);
  EXPECT_EQ(spec.window_from, 0u);
  EXPECT_EQ(spec.window_to, 2u);
  EXPECT_EQ(spec.seed, 7u);
}

TEST(FaultParseTest, ParsesSemicolonSeparatedLists) {
  EXPECT_TRUE(parse_fault_specs("").empty());
  const auto specs = parse_fault_specs(
      "outage:dc=0,mtbf=1d,mttr=1h;flap:dc=1,from=5,to=9");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].kind, FaultKind::kOutage);
  EXPECT_EQ(specs[1].kind, FaultKind::kGrantFlap);
}

TEST(FaultParseTest, DescribeRoundTrips) {
  for (const auto* text :
       {"outage:dc=2,mtbf=4d,mttr=2h,seed=9",
        "capacity:dc=1,from=0,to=10,keep=0.3",
        "latency:dc=0,mtbf=1d,mttr=1h,classes=2"}) {
    const auto spec = parse_fault_spec(text);
    const auto reparsed = parse_fault_spec(describe(spec));
    EXPECT_EQ(reparsed.kind, spec.kind);
    EXPECT_EQ(reparsed.dc_index, spec.dc_index);
    EXPECT_DOUBLE_EQ(reparsed.severity, spec.severity);
    EXPECT_EQ(reparsed.window_from, spec.window_from);
    EXPECT_EQ(reparsed.window_to, spec.window_to);
  }
}

}  // namespace
}  // namespace mmog::fault
