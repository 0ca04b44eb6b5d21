#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <numbers>
#include <string>

#include "core/run_report.hpp"
#include "core/simulation.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "predict/simple.hpp"

// Runtime twin of the mmog_lint rules: the linter proves no nondeterminism
// *source* exists in the simulation layers; this property test proves the
// *outcome* — two runs with identical seeds produce byte-identical results
// and byte-identical metrics snapshots, with live telemetry on or off.

namespace mmog::core {
namespace {

using util::ResourceKind;

trace::WorldTrace sine_workload(std::size_t groups, std::size_t steps) {
  trace::WorldTrace world;
  trace::RegionalTrace region;
  region.name = "Europe";
  for (std::size_t g = 0; g < groups; ++g) {
    trace::ServerGroupTrace group;
    group.name = "G";
    group.name += std::to_string(g);
    group.players = util::TimeSeries(util::kSampleStepSeconds);
    for (std::size_t t = 0; t < steps; ++t) {
      const double phase =
          2.0 * std::numbers::pi * static_cast<double>(t + 37 * g) / 720.0;
      group.players.push_back(500.0 + 450.0 * (1.0 - std::cos(phase)));
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
  d.machines = 30;
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

// Hexfloat so equal strings mean equal bits, not equal roundings.
void put(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a,", v);
  out += buf;
}
void put(std::string& out, std::size_t v) {
  out += std::to_string(v);
  out += ',';
}
void put(std::string& out, const util::ResourceVector& v) {
  put(out, v.cpu());
  put(out, v.memory());
  put(out, v.net_in());
  put(out, v.net_out());
}
void put(std::string& out, const SlaStats& s) {
  put(out, s.steps);
  put(out, s.downtime_steps);
  put(out, s.shed_steps);
  put(out, s.breach_episodes);
  put(out, s.recoveries);
  put(out, s.longest_breach_steps);
  put(out, s.mean_time_to_recover_steps);
  put(out, s.max_time_to_recover_steps);
}

/// Every numeric field of the result, per step, bit for bit.
std::string serialize(const SimulationResult& result) {
  std::string out;
  put(out, result.steps);
  put(out, result.unplaced_cpu_unit_steps);
  put(out, result.total_cost);
  put(out, result.sla);
  for (const auto& step : result.metrics.step_metrics()) {
    put(out, step.allocated);
    put(out, step.used);
    put(out, step.shortfall);
    put(out, step.machines);
    out += '\n';
  }
  for (const auto& d : result.datacenters) {
    out += d.name;
    out += ',';
    put(out, d.capacity_cpu);
    put(out, d.avg_allocated_cpu);
    put(out, d.peak_allocated_cpu);
    for (const auto& [origin, cpu] : d.avg_allocated_by_origin) {
      out += origin;
      out += ',';
      put(out, cpu);
    }
    out += '\n';
  }
  for (const auto& g : result.games) {
    out += g.name;
    out += ',';
    put(out, g.metrics.avg_over_allocation_pct(ResourceKind::kCpu));
    put(out, g.metrics.avg_under_allocation_pct(ResourceKind::kCpu));
    put(out, g.metrics.significant_events());
    put(out, g.sla);
    out += '\n';
  }
  return out;
}

/// Snapshot minus the wall-clock-derived histograms ("phase.*_us",
/// "predictor.inference_us"): everything else must be bit-deterministic.
std::string deterministic_snapshot_json(const obs::Recorder& rec) {
  obs::Snapshot snap = rec.snapshot();
  for (auto it = snap.histograms.begin(); it != snap.histograms.end();) {
    if (it->first.size() >= 3 &&
        it->first.compare(it->first.size() - 3, 3, "_us") == 0) {
      it = snap.histograms.erase(it);
    } else {
      ++it;
    }
  }
  return snap.to_json();
}

void enable_live(obs::Recorder& rec, const SimulationConfig& cfg) {
  rec.enable_timeseries(64);
  rec.enable_alerts(obs::default_alert_rules(cfg.event_threshold_pct));
}

/// Multi-game, multi-group config so the parallel predict phase has enough
/// slots to shard across workers.
SimulationConfig parallel_config(std::size_t threads) {
  auto cfg = base_config(6, 240);
  GameSpec second;
  second.name = "SecondGame";
  second.load = LoadModel{UpdateModel::kQuadratic, 2000.0};
  second.latency_tolerance = dc::DistanceClass::kVeryFar;
  second.workload = sine_workload(5, 240);
  cfg.games.push_back(std::move(second));
  cfg.threads = threads;
  return cfg;
}

/// Like deterministic_snapshot_json, additionally dropping the one gauge
/// that legitimately differs across thread counts (it reports the thread
/// count itself).
std::string thread_agnostic_snapshot_json(const obs::Recorder& rec) {
  obs::Snapshot snap = rec.snapshot();
  for (auto it = snap.histograms.begin(); it != snap.histograms.end();) {
    if (it->first.size() >= 3 &&
        it->first.compare(it->first.size() - 3, 3, "_us") == 0) {
      it = snap.histograms.erase(it);
    } else {
      ++it;
    }
  }
  snap.gauges.erase("sim.predict_threads");
  return snap.to_json();
}

TEST(DeterminismTest, IdenticalSeedsGiveByteIdenticalResults) {
  auto cfg = base_config(3, 240);
  const auto first = simulate(cfg);
  const auto second = simulate(cfg);
  EXPECT_EQ(serialize(first), serialize(second));
}

TEST(DeterminismTest, TelemetryOnAndOffGiveByteIdenticalResults) {
  auto cfg = base_config(3, 240);
  const auto plain = simulate(cfg);

  obs::Recorder rec(obs::TraceLevel::kSteps);
  enable_live(rec, cfg);
  cfg.recorder = &rec;
  const auto observed = simulate(cfg);

  // The whole result, every step, every field — not just the summary
  // statistics: telemetry must be a pure observer.
  EXPECT_EQ(serialize(plain), serialize(observed));
}

TEST(DeterminismTest, MetricsSnapshotsAreByteIdenticalAcrossRuns) {
  auto cfg = base_config(3, 240);

  obs::Recorder rec_a(obs::TraceLevel::kSteps);
  enable_live(rec_a, cfg);
  cfg.recorder = &rec_a;
  simulate(cfg);

  obs::Recorder rec_b(obs::TraceLevel::kSteps);
  enable_live(rec_b, cfg);
  cfg.recorder = &rec_b;
  simulate(cfg);

  // Counters, gauges, and non-timing histograms must match byte for byte;
  // so must the downsampled time-series rings and the alert state machine.
  EXPECT_EQ(deterministic_snapshot_json(rec_a),
            deterministic_snapshot_json(rec_b));
  ASSERT_NE(rec_a.timeseries(), nullptr);
  ASSERT_NE(rec_b.timeseries(), nullptr);
  EXPECT_EQ(rec_a.timeseries()->to_json(), rec_b.timeseries()->to_json());
  EXPECT_EQ(rec_a.timeseries()->to_csv(), rec_b.timeseries()->to_csv());
  ASSERT_NE(rec_a.alerts(), nullptr);
  ASSERT_NE(rec_b.alerts(), nullptr);
  EXPECT_EQ(rec_a.alerts()->to_json(), rec_b.alerts()->to_json());
}

// ---------------------------------------------------------------------------
// Parallel predict phase: for any worker count, the simulation must be
// bit-identical to the serial path — workers write disjoint slots and the
// pad/match reduction happens serially in fixed order, so thread scheduling
// can reorder only the *timing* of predictions, never their values.

TEST(ParallelDeterminismTest, ThreadCountDoesNotChangeResults) {
  const auto baseline = [&] {
    auto cfg = parallel_config(1);
    return serialize(simulate(cfg));
  }();
  for (const std::size_t threads : {2u, 4u, 8u}) {
    auto cfg = parallel_config(threads);
    EXPECT_EQ(serialize(simulate(cfg)), baseline) << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, HardwareThreadCountMatchesSerial) {
  auto serial_cfg = parallel_config(1);
  const auto serial = simulate(serial_cfg);
  auto hw_cfg = parallel_config(0);  // 0 = hardware concurrency
  const auto parallel = simulate(hw_cfg);
  EXPECT_EQ(serialize(serial), serialize(parallel));
}

TEST(ParallelDeterminismTest, ThreadCountDoesNotChangeTelemetry) {
  // With live telemetry on, every counter, gauge (minus the thread-count
  // gauge itself), non-timing histogram, time-series ring, and alert state
  // must match the serial run byte for byte.
  auto serial_cfg = parallel_config(1);
  obs::Recorder rec_serial(obs::TraceLevel::kSteps);
  enable_live(rec_serial, serial_cfg);
  serial_cfg.recorder = &rec_serial;
  const auto serial = simulate(serial_cfg);

  auto parallel_cfg = parallel_config(4);
  obs::Recorder rec_parallel(obs::TraceLevel::kSteps);
  enable_live(rec_parallel, parallel_cfg);
  parallel_cfg.recorder = &rec_parallel;
  const auto parallel = simulate(parallel_cfg);

  EXPECT_EQ(serialize(serial), serialize(parallel));
  EXPECT_EQ(thread_agnostic_snapshot_json(rec_serial),
            thread_agnostic_snapshot_json(rec_parallel));
  ASSERT_NE(rec_serial.timeseries(), nullptr);
  ASSERT_NE(rec_parallel.timeseries(), nullptr);
  EXPECT_EQ(rec_serial.timeseries()->to_json(),
            rec_parallel.timeseries()->to_json());
  ASSERT_NE(rec_serial.alerts(), nullptr);
  ASSERT_NE(rec_parallel.alerts(), nullptr);
  EXPECT_EQ(rec_serial.alerts()->to_json(), rec_parallel.alerts()->to_json());
}

TEST(ParallelDeterminismTest, AuditTrailIsByteIdenticalAcrossThreadCounts) {
  // The decision audit trail is outcome data: same seed, same config, any
  // thread count -> the same JSONL bytes. This is what CI's mmog_diff
  // threads-1-vs-4 check enforces end to end.
  auto serial_cfg = parallel_config(1);
  obs::Recorder rec_serial(obs::TraceLevel::kOff);
  rec_serial.enable_audit();
  serial_cfg.recorder = &rec_serial;
  simulate(serial_cfg);

  auto parallel_cfg = parallel_config(4);
  obs::Recorder rec_parallel(obs::TraceLevel::kOff);
  rec_parallel.enable_audit();
  parallel_cfg.recorder = &rec_parallel;
  simulate(parallel_cfg);

  ASSERT_NE(rec_serial.audit(), nullptr);
  ASSERT_NE(rec_parallel.audit(), nullptr);
  ASSERT_GT(rec_serial.audit()->size(), 0u);
  EXPECT_EQ(rec_serial.audit()->to_jsonl(), rec_parallel.audit()->to_jsonl());
}

TEST(ParallelDeterminismTest, RunReportOutcomeIsThreadAgnostic) {
  // Canonical reports from a threads=1 and a threads=4 run must agree on
  // config, fingerprint and every outcome field; only the timing section
  // may differ. diff_reports is exactly mmog_diff's comparison.
  auto serial_cfg = parallel_config(1);
  obs::Recorder rec_serial(obs::TraceLevel::kOff);
  rec_serial.enable_audit();
  serial_cfg.recorder = &rec_serial;
  const auto serial = simulate(serial_cfg);
  const auto report_serial =
      make_run_report(serial_cfg, serial, "test", "run", 0.0);

  auto parallel_cfg = parallel_config(4);
  obs::Recorder rec_parallel(obs::TraceLevel::kOff);
  rec_parallel.enable_audit();
  parallel_cfg.recorder = &rec_parallel;
  const auto parallel = simulate(parallel_cfg);
  const auto report_parallel =
      make_run_report(parallel_cfg, parallel, "test", "run", 0.0);

  EXPECT_EQ(report_serial.fingerprint(), report_parallel.fingerprint());
  EXPECT_EQ(report_serial.outcome, report_parallel.outcome);
  const auto diff = obs::diff_reports(report_serial, report_parallel);
  EXPECT_FALSE(diff.regression()) << [&] {
    std::string joined;
    for (const auto& note : diff.notes) joined += note + '\n';
    return joined;
  }();
  // The thread count is reported, but as an execution detail.
  EXPECT_EQ(report_serial.threads, 1u);
  EXPECT_EQ(report_parallel.threads, 4u);
}

TEST(ParallelDeterminismTest, FaultedResilientRunIsThreadAgnostic) {
  // Only predict is sharded; the match/replace walks judge each
  // candidate's outage and latency-degradation verdict inline and serially.
  // Verdicts are pure in (center, step) and the walks run in fixed service
  // order — so a faulted, resilient run must serialize identically at any
  // thread count, audit trail included.
  auto faulted = [](std::size_t threads) {
    auto cfg = parallel_config(threads);
    fault::FaultSpec outage;
    outage.kind = fault::FaultKind::kOutage;
    outage.dc_index = 0;
    outage.window_from = 60;
    outage.window_to = 90;
    fault::FaultSpec flap;
    flap.dc_index = 0;
    flap.mtbf_steps = 80.0;
    flap.mttr_steps = 10.0;
    flap.seed = 11;
    cfg.faults = {outage, flap};
    cfg.resilience.enabled = true;
    return cfg;
  };
  auto serial_cfg = faulted(1);
  obs::Recorder rec_serial(obs::TraceLevel::kOff);
  rec_serial.enable_audit();
  serial_cfg.recorder = &rec_serial;
  const auto serial = simulate(serial_cfg);
  ASSERT_FALSE(serial.fault_events.empty());
  const auto baseline = serialize(serial);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    auto cfg = faulted(threads);
    obs::Recorder rec(obs::TraceLevel::kOff);
    rec.enable_audit();
    cfg.recorder = &rec;
    const auto parallel = simulate(cfg);
    EXPECT_EQ(serialize(parallel), baseline) << "threads=" << threads;
    EXPECT_EQ(parallel.fault_events, serial.fault_events)
        << "threads=" << threads;
    EXPECT_EQ(rec.audit()->to_jsonl(), rec_serial.audit()->to_jsonl())
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, RepeatedParallelRunsAreByteIdentical) {
  auto cfg = parallel_config(4);
  const auto first = simulate(cfg);
  const auto second = simulate(cfg);
  EXPECT_EQ(serialize(first), serialize(second));
}

// ---------------------------------------------------------------------------
// Resource profiler (PR 8): arming the allocation hooks and publishing
// throughput/RSS gauges is pure observation. Everything deterministic —
// the result, the outcome section of the canonical report, the audit
// trail — must be byte-identical with profiling on or off, at any thread
// count. This is the invariant that lets mmog_simulate keep the profiler
// always-on.

TEST(ProfilerDeterminismTest, ProfilerOnAndOffGiveByteIdenticalOutcomes) {
  for (const std::size_t threads : {1u, 4u}) {
    auto cfg_off = parallel_config(threads);
    obs::Recorder rec_off(obs::TraceLevel::kOff);
    rec_off.enable_audit();
    cfg_off.recorder = &rec_off;
    const auto off = simulate(cfg_off);
    const auto report_off =
        make_run_report(cfg_off, off, "test", "run", 0.0);

    auto cfg_on = parallel_config(threads);
    obs::Recorder rec_on(obs::TraceLevel::kOff);
    rec_on.enable_audit();
    rec_on.enable_profiler();
    cfg_on.recorder = &rec_on;
    const auto on = simulate(cfg_on);
    const auto report_on = make_run_report(cfg_on, on, "test", "run", 0.0);

    EXPECT_EQ(serialize(off), serialize(on)) << "threads=" << threads;
    EXPECT_EQ(rec_off.audit()->to_jsonl(), rec_on.audit()->to_jsonl())
        << "threads=" << threads;
    // mmog_diff's comparison must see nothing: the profiler publishes
    // only gauges and histograms, and those live outside the outcome.
    EXPECT_EQ(report_off.fingerprint(), report_on.fingerprint());
    EXPECT_EQ(report_off.outcome, report_on.outcome);
    const auto diff = obs::diff_reports(report_off, report_on);
    EXPECT_FALSE(diff.regression()) << [&] {
      std::string joined;
      for (const auto& note : diff.notes) joined += note + '\n';
      return joined;
    }();
    // The profiled run does carry the extra observability: allocation
    // histograms next to the timing ones, throughput and RSS gauges.
    const auto snap = rec_on.snapshot();
    EXPECT_NE(snap.histograms.find("phase.step_allocs"),
              snap.histograms.end());
    EXPECT_GT(snap.gauges.at("sim.steps_per_sec"), 0.0);
    EXPECT_EQ(rec_off.snapshot().histograms.count("phase.step_allocs"), 0u);
  }
}

TEST(ProfilerDeterminismTest, ProfiledCountersMatchUnprofiledByteForByte) {
  // The registry's counter section (what RunReport folds into the outcome)
  // must be bit-identical across profiling modes.
  auto cfg = base_config(3, 240);

  obs::Recorder rec_off(obs::TraceLevel::kOff);
  cfg.recorder = &rec_off;
  simulate(cfg);

  obs::Recorder rec_on(obs::TraceLevel::kOff);
  rec_on.enable_profiler();
  cfg.recorder = &rec_on;
  simulate(cfg);

  auto counters_json = [](const obs::Recorder& rec) {
    obs::Snapshot snap = rec.snapshot();
    snap.histograms.clear();
    snap.gauges.clear();
    return snap.to_json();
  };
  EXPECT_EQ(counters_json(rec_off), counters_json(rec_on));
}

TEST(DeterminismTest, SnapshotCsvIsByteIdenticalAcrossRuns) {
  auto cfg = base_config(2, 120);

  obs::Recorder rec_a(obs::TraceLevel::kOff);
  cfg.recorder = &rec_a;
  simulate(cfg);

  obs::Recorder rec_b(obs::TraceLevel::kOff);
  cfg.recorder = &rec_b;
  simulate(cfg);

  auto csv_without_timings = [](const obs::Recorder& rec) {
    obs::Snapshot snap = rec.snapshot();
    snap.histograms.clear();  // timing-only in core::simulate
    return snap.to_csv();
  };
  EXPECT_EQ(csv_without_timings(rec_a), csv_without_timings(rec_b));
}

}  // namespace
}  // namespace mmog::core
