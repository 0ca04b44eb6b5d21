#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/run_report.hpp"
#include "core/simulation.hpp"
#include "obs/recorder.hpp"
#include "predict/simple.hpp"

namespace mmog::core {
namespace {

using util::ResourceKind;

// Same small setup as simulation_test.cpp: one-region sine workload against
// the single Amsterdam data center.
trace::WorldTrace sine_workload(std::size_t groups, std::size_t steps) {
  trace::WorldTrace world;
  trace::RegionalTrace region;
  region.name = "Europe";
  for (std::size_t g = 0; g < groups; ++g) {
    trace::ServerGroupTrace group;
    group.name = "G" + std::to_string(g);
    group.players = util::TimeSeries(util::kSampleStepSeconds);
    for (std::size_t t = 0; t < steps; ++t) {
      const double phase =
          2.0 * std::numbers::pi * static_cast<double>(t) / 720.0;
      group.players.push_back(400.0 + 600.0 * (1.0 - std::cos(phase)));
    }
    region.groups.push_back(std::move(group));
  }
  world.regions.push_back(std::move(region));
  return world;
}

SimulationConfig base_config(std::size_t groups, std::size_t steps) {
  SimulationConfig cfg;
  dc::DataCenterSpec d;
  d.name = "NL";
  d.country = "Netherlands";
  d.continent = "Europe";
  d.location = {52.37, 4.90};
  d.machines = 40;
  d.policy = dc::HostingPolicy::preset(1);
  cfg.datacenters = {d};
  GameSpec game;
  game.name = "TestGame";
  game.load = LoadModel{UpdateModel::kQuadratic, 2000.0};
  game.latency_tolerance = dc::DistanceClass::kVeryFar;
  game.workload = sine_workload(groups, steps);
  cfg.games.push_back(std::move(game));
  cfg.predictor = [] {
    return std::make_unique<predict::LastValuePredictor>();
  };
  return cfg;
}

TEST(ObsIntegrationTest, DynamicRunEmitsGoldenSpanSequencePerStep) {
  constexpr std::size_t kGroups = 3;
  constexpr std::size_t kSteps = 24;
  obs::Recorder rec(obs::TraceLevel::kSteps);
  auto cfg = base_config(kGroups, kSteps);
  cfg.recorder = &rec;
  simulate(cfg);

  // Golden content check: span names only, never timings. Each step emits
  // exactly the phase spans followed by the enclosing step span; the
  // match_commit span (the serial commit inside the match phase) closes
  // before its parent match span does.
  const std::vector<std::string> golden = {
      "predict", "pad", "match_commit", "match", "account", "books", "step"};
  std::map<std::uint64_t, std::vector<std::string>> spans_by_step;
  for (const auto& e : rec.tracer().events()) {
    if (e.kind == obs::TraceKind::kSpan) {
      spans_by_step[e.step].push_back(e.name);
    }
  }
  ASSERT_EQ(spans_by_step.size(), kSteps);
  for (std::uint64_t t = 0; t < kSteps; ++t) {
    EXPECT_EQ(spans_by_step.at(t), golden) << "step " << t;
  }
}

TEST(ObsIntegrationTest, CountersMatchWorkloadShape) {
  constexpr std::size_t kGroups = 3;
  constexpr std::size_t kSteps = 24;
  obs::Recorder rec(obs::TraceLevel::kSteps);
  auto cfg = base_config(kGroups, kSteps);
  cfg.recorder = &rec;
  simulate(cfg);

  const auto snap = rec.snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("predict.issued"),
                   static_cast<double>(kSteps * kGroups));
  EXPECT_DOUBLE_EQ(snap.counters.at("request.padded"),
                   static_cast<double>(kSteps));  // one unit (game, region)
  EXPECT_DOUBLE_EQ(snap.counters.at("offer.matched"),
                   snap.counters.at("alloc.granted"));
  EXPECT_GT(snap.counters.at("alloc.granted"), 0.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("sim.steps"), static_cast<double>(kSteps));
  EXPECT_DOUBLE_EQ(snap.gauges.at("sim.units"), 1.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("sim.groups"),
                   static_cast<double>(kGroups));
  EXPECT_DOUBLE_EQ(snap.gauges.at("sim.datacenters"), 1.0);
  // Phase histograms carry one sample per step. Inference timing samples
  // slot (step mod 64) on each step: with 3 groups and 24 steps, steps 0-2
  // time one prediction each.
  for (const char* phase : {"phase.predict_us", "phase.pad_us",
                            "phase.match_us", "phase.match_commit_us",
                            "phase.account_us", "phase.books_us",
                            "phase.step_us"}) {
    EXPECT_EQ(snap.histograms.at(phase).count, kSteps) << phase;
  }
  EXPECT_EQ(snap.histograms.at("predictor.inference_us").count, kGroups);
}

TEST(ObsIntegrationTest, ShortRunStillPublishesProfilerGauges) {
  // The profiler publishes every 64 steps and on the last one, so a run
  // shorter than that, or one a stop ends after its first step, still
  // ends with every gauge set, and the report takes its steps/s from the
  // final publish.
  const std::atomic<bool> stop{true};
  for (const bool stopped : {false, true}) {
    obs::Recorder rec(obs::TraceLevel::kOff);
    rec.enable_profiler();
    auto cfg = base_config(3, stopped ? 200 : 24);
    if (stopped) cfg.stop_flag = &stop;
    cfg.recorder = &rec;
    const auto result = simulate(cfg);
    ASSERT_EQ(result.steps, stopped ? 1u : 24u);
    const auto snap = rec.snapshot();
    for (const char* gauge :
         {"sim.steps_per_sec", "sim.group_steps_per_sec",
          "proc.current_rss_kb", "proc.peak_rss_kb"}) {
      ASSERT_TRUE(snap.gauges.contains(gauge)) << gauge;
      EXPECT_GT(snap.gauges.at(gauge), 0.0) << gauge;
    }
    EXPECT_EQ(rec.profiler()->steps_per_sec(),
              snap.gauges.at("sim.steps_per_sec"));
    const auto report = make_run_report(cfg, result, "test", "", 1.0);
    EXPECT_EQ(report.steps_per_sec, snap.gauges.at("sim.steps_per_sec"));
  }
}

TEST(ObsIntegrationTest, FaultedCheckpointingRunTimesFaultsAndCheckpoints) {
  // fault_inject spans every step of a run with a fault schedule, and
  // checkpoint spans exactly the capture steps; books spans every step.
  constexpr std::size_t kSteps = 40;
  obs::Recorder rec(obs::TraceLevel::kSteps);
  auto cfg = base_config(2, kSteps);
  fault::FaultSpec outage;
  outage.dc_index = 0;
  outage.window_from = 10;
  outage.window_to = 14;
  cfg.faults.push_back(outage);
  std::size_t captured = 0;
  cfg.checkpoint_every_steps = 10;
  cfg.checkpoint_sink = [&](const CheckpointState&) { ++captured; };
  cfg.recorder = &rec;
  simulate(cfg);

  std::map<std::string, std::vector<std::uint64_t>> steps_by_span;
  for (const auto& e : rec.tracer().events()) {
    if (e.kind == obs::TraceKind::kSpan) {
      steps_by_span[e.name].push_back(e.step);
    }
  }
  EXPECT_EQ(steps_by_span["fault_inject"].size(), kSteps);
  EXPECT_EQ(steps_by_span["books"].size(), kSteps);
  EXPECT_EQ(captured, 4u);
  EXPECT_EQ(steps_by_span["checkpoint"],
            (std::vector<std::uint64_t>{9, 19, 29, 39}));
}

TEST(ObsIntegrationTest, DetailLevelAddsPerUnitInstants) {
  constexpr std::size_t kSteps = 12;
  auto count_instants = [&](obs::TraceLevel level, std::string_view name) {
    obs::Recorder rec(level);
    auto cfg = base_config(2, kSteps);
    cfg.recorder = &rec;
    simulate(cfg);
    std::size_t n = 0;
    for (const auto& e : rec.tracer().events()) {
      if (e.kind == obs::TraceKind::kInstant && e.name == name) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_instants(obs::TraceLevel::kSteps, "request.padded"), 0u);
  EXPECT_EQ(count_instants(obs::TraceLevel::kDetail, "request.padded"),
            kSteps);
}

TEST(ObsIntegrationTest, ResultsIdenticalWithAndWithoutRecorder) {
  // The observability layer must be a pure observer: event content derives
  // from simulation state, never the reverse.
  auto cfg = base_config(4, 120);
  const auto plain = simulate(cfg);

  obs::Recorder rec(obs::TraceLevel::kDetail);
  cfg.recorder = &rec;
  const auto observed = simulate(cfg);

  EXPECT_EQ(observed.steps, plain.steps);
  EXPECT_DOUBLE_EQ(observed.total_cost, plain.total_cost);
  EXPECT_DOUBLE_EQ(observed.unplaced_cpu_unit_steps,
                   plain.unplaced_cpu_unit_steps);
  EXPECT_DOUBLE_EQ(observed.metrics.avg_over_allocation_pct(ResourceKind::kCpu),
                   plain.metrics.avg_over_allocation_pct(ResourceKind::kCpu));
  EXPECT_DOUBLE_EQ(
      observed.metrics.avg_under_allocation_pct(ResourceKind::kCpu),
      plain.metrics.avg_under_allocation_pct(ResourceKind::kCpu));
  EXPECT_EQ(observed.metrics.significant_events(),
            plain.metrics.significant_events());
}

TEST(ObsIntegrationTest, ResultsIdenticalWithLiveTelemetryEnabled) {
  // The live sampling path (time-series + alert engine) must be as inert
  // as the base recorder: identical results, bit for bit.
  auto cfg = base_config(4, 120);
  const auto plain = simulate(cfg);

  obs::Recorder rec(obs::TraceLevel::kSteps);
  rec.enable_timeseries(64);
  rec.enable_alerts(obs::default_alert_rules(cfg.event_threshold_pct));
  cfg.recorder = &rec;
  const auto live = simulate(cfg);

  EXPECT_EQ(live.steps, plain.steps);
  EXPECT_DOUBLE_EQ(live.total_cost, plain.total_cost);
  EXPECT_DOUBLE_EQ(live.unplaced_cpu_unit_steps,
                   plain.unplaced_cpu_unit_steps);
  EXPECT_DOUBLE_EQ(live.metrics.avg_under_allocation_pct(ResourceKind::kCpu),
                   plain.metrics.avg_under_allocation_pct(ResourceKind::kCpu));
  EXPECT_EQ(live.metrics.significant_events(),
            plain.metrics.significant_events());
}

TEST(ObsIntegrationTest, LiveSamplingFillsTimeSeriesAndGauges) {
  constexpr std::size_t kSteps = 24;
  obs::Recorder rec(obs::TraceLevel::kOff);
  rec.enable_timeseries(64);
  auto cfg = base_config(2, kSteps);
  cfg.recorder = &rec;
  simulate(cfg);

  ASSERT_NE(rec.timeseries(), nullptr);
  const auto names = rec.timeseries()->names();
  for (const char* expected :
       {"core.allocated_cpu", "core.demand_cpu", "core.underalloc_frac",
        "core.overalloc_frac", "core.predictor_abs_err",
        "sla.availability_min_pct", "sla.availability_pct.TestGame"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  const auto json = rec.timeseries()->to_json();
  EXPECT_NE(json.find("\"samples_seen\":" + std::to_string(kSteps)),
            std::string::npos);
  // The last step's samples are republished as gauges for /metrics scrapes.
  const auto snap = rec.snapshot();
  EXPECT_GT(snap.gauges.at("core.allocated_cpu"), 0.0);
  EXPECT_EQ(rec.last_sampled_step(), kSteps - 1);
}

TEST(ObsIntegrationTest, AlertFiresWhenDemandOverwhelmsCapacity) {
  // One machine against three heavy groups: demand far exceeds capacity on
  // every step, so |Y| > 1 % holds long enough to trip the default
  // under-allocation rule (for=5 steps).
  obs::Recorder rec(obs::TraceLevel::kSteps);
  rec.enable_alerts(obs::default_alert_rules(1.0));
  auto cfg = base_config(3, 40);
  cfg.games[0].load = LoadModel{UpdateModel::kQuadratic, 300.0};
  cfg.datacenters[0].machines = 1;
  cfg.recorder = &rec;
  simulate(cfg);

  ASSERT_NE(rec.alerts(), nullptr);
  const auto statuses = rec.alerts()->statuses();
  ASSERT_FALSE(statuses.empty());
  EXPECT_EQ(statuses[0].rule.name, "underalloc");
  EXPECT_GE(statuses[0].fired_count, 1u);
  const auto snap = rec.snapshot();
  EXPECT_GE(snap.counters.at("alert.fired"), 1.0);
  // Firing edges also land in the trace as "alert" instants.
  bool saw_instant = false;
  for (const auto& e : rec.tracer().events()) {
    if (e.kind == obs::TraceKind::kInstant && e.name == "alert.firing") {
      saw_instant = true;
    }
  }
  EXPECT_TRUE(saw_instant);
}

TEST(ObsIntegrationTest, StaticModeRecordsSingleAllocationPhase) {
  obs::Recorder rec(obs::TraceLevel::kSteps);
  auto cfg = base_config(2, 12);
  cfg.mode = AllocationMode::kStatic;
  cfg.recorder = &rec;
  simulate(cfg);
  const auto snap = rec.snapshot();
  EXPECT_EQ(snap.histograms.at("phase.static_allocate_us").count, 1u);
  EXPECT_FALSE(snap.histograms.contains("phase.predict_us"));
  EXPECT_GT(snap.counters.at("alloc.granted"), 0.0);
}

TEST(ObsIntegrationTest, OutageEmitsForceReleaseAndRejection) {
  obs::Recorder rec(obs::TraceLevel::kSteps);
  auto cfg = base_config(2, 24);
  DataCenterOutage outage;
  outage.dc_index = 0;
  outage.from_step = 10;
  outage.to_step = 12;
  cfg.outages.push_back(outage);
  cfg.recorder = &rec;
  simulate(cfg);
  const auto snap = rec.snapshot();
  EXPECT_GT(snap.counters.at("alloc.force_released"), 0.0);
  EXPECT_GT(snap.counters.at("offer.rejected.outage"), 0.0);
}

}  // namespace
}  // namespace mmog::core
