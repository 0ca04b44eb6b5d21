#pragma once

// One number for everything a simulation run produces. The run report and
// its outcome diff hold only global aggregates; this digest also covers the
// per-step history, per-game metrics, per-DC usage (average, peak and by
// origin) and, when a recorder was attached, the decision audit trail and
// every counter. A test that pins it sees any change to any output.
//
// The digest is FNV-1a 64 over a text rendering: every double as its exact
// `%a` hexfloat, every integer and string as its decimal or literal text,
// each followed by a newline, in field order.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <numbers>
#include <string>
#include <string_view>

#include "core/simulation.hpp"
#include "fault/parse.hpp"
#include "obs/audit.hpp"
#include "obs/recorder.hpp"
#include "predict/simple.hpp"

namespace mmog::test {

class RunDigest {
 public:
  void add(std::string_view text) {
    for (const char c : text) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  void add(double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", value);
    add(std::string_view(buf));
  }
  void add(std::uint64_t value) { add(std::to_string(value)); }
  void add(bool value) { add(std::uint64_t{value ? 1u : 0u}); }
  void add(const util::ResourceVector& v) {
    for (const double x : v.v) add(x);
  }
  void add(const core::StepMetrics& m) {
    add(m.allocated);
    add(m.used);
    add(m.shortfall);
    add(std::uint64_t{m.machines});
  }
  void add(const core::MetricsAccumulator& metrics) {
    add(std::uint64_t{metrics.steps()});
    for (const auto& m : metrics.step_metrics()) add(m);
  }
  void add(const core::SlaStats& s) {
    add(std::uint64_t{s.steps});
    add(std::uint64_t{s.downtime_steps});
    add(std::uint64_t{s.shed_steps});
    add(std::uint64_t{s.breach_episodes});
    add(std::uint64_t{s.recoveries});
    add(std::uint64_t{s.longest_breach_steps});
    add(s.mean_time_to_recover_steps);
    add(std::uint64_t{s.max_time_to_recover_steps});
  }
  void add(const fault::FaultEvent& ev) {
    add(std::uint64_t{static_cast<unsigned>(ev.kind)});
    add(std::uint64_t{ev.dc_index});
    add(std::uint64_t{ev.from_step});
    add(std::uint64_t{ev.to_step});
    add(ev.severity);
  }

  std::uint64_t value() const noexcept { return hash_; }

 private:
  void mix(unsigned char byte) noexcept {
    hash_ ^= byte;
    hash_ *= 1099511628211ull;  // FNV-1a 64 prime
  }

  std::uint64_t hash_ = 14695981039346656037ull;  // FNV-1a 64 offset basis
};

/// The digest of `result`, plus the recorder's audit JSONL and counter map
/// when `rec` is given.
inline std::uint64_t run_digest(const core::SimulationResult& result,
                                const obs::Recorder* rec = nullptr) {
  RunDigest d;
  d.add(result.metrics);
  for (const auto& game : result.games) d.add(game.metrics);
  d.add(std::uint64_t{result.games.size()});
  for (const auto& game : result.games) {
    d.add(game.name);
    d.add(game.sla);
  }
  d.add(std::uint64_t{result.datacenters.size()});
  for (const auto& usage : result.datacenters) {
    d.add(usage.name);
    d.add(usage.capacity_cpu);
    d.add(usage.avg_allocated_cpu);
    d.add(usage.peak_allocated_cpu);
    d.add(std::uint64_t{usage.avg_allocated_by_origin.size()});
    for (const auto& [origin, cpu] : usage.avg_allocated_by_origin) {
      d.add(origin);
      d.add(cpu);
    }
  }
  d.add(std::uint64_t{result.fault_events.size()});
  for (const auto& ev : result.fault_events) d.add(ev);
  d.add(result.sla);
  d.add(std::uint64_t{result.steps});
  d.add(result.unplaced_cpu_unit_steps);
  d.add(result.total_cost);
  d.add(result.interrupted);
  if (rec != nullptr) {
    if (const auto* audit = rec->audit()) d.add(audit->to_jsonl());
    const auto counters = rec->snapshot().counters;
    d.add(std::uint64_t{counters.size()});
    for (const auto& [name, value] : counters) {
      d.add(name);
      d.add(value);
    }
  }
  return d.value();
}

// The small world the digest suite pins. Only plain arithmetic and libm
// calls go into it, so every toolchain builds the same bits.

/// `groups` server groups in Europe, each a phase-shifted daily sine.
inline trace::WorldTrace sine_workload(std::size_t groups, std::size_t steps) {
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

inline constexpr std::size_t kDigestSteps = 240;

/// Four small European centres on CPU-bulk presets and two games of
/// different priority; dynamic mode with the last-value predictor.
inline core::SimulationConfig digest_base_config(std::size_t threads) {
  core::SimulationConfig cfg;
  const auto centre = [](const char* name, double lat, double lon,
                         std::size_t machines, int preset) {
    dc::DataCenterSpec d;
    d.name = name;
    d.continent = "Europe";
    d.location = {lat, lon};
    d.machines = machines;
    d.policy = dc::HostingPolicy::preset(preset);
    return d;
  };
  cfg.datacenters = {centre("NL", 52.37, 4.90, 2, 1),
                     centre("DE", 50.11, 8.68, 2, 5),
                     centre("UK", 51.51, -0.13, 1, 3),
                     centre("FI", 60.17, 24.94, 2, 7)};
  core::GameSpec beta;
  beta.name = "Beta";
  beta.load = core::LoadModel{core::UpdateModel::kQuadratic, 2000.0};
  beta.latency_tolerance = dc::DistanceClass::kVeryFar;
  beta.workload = sine_workload(3, kDigestSteps);
  cfg.games.push_back(std::move(beta));
  core::GameSpec alpha;
  alpha.name = "Alpha";
  alpha.priority = 1;
  alpha.load = core::LoadModel{core::UpdateModel::kQuadratic, 2000.0};
  alpha.latency_tolerance = dc::DistanceClass::kClose;
  alpha.workload = sine_workload(4, kDigestSteps);
  cfg.games.push_back(std::move(alpha));
  cfg.predictor = [] {
    return std::make_unique<predict::LastValuePredictor>();
  };
  cfg.threads = threads;
  return cfg;
}

/// The base world under all four fault kinds, with same-step re-placement,
/// a standby reserve and priority shedding.
inline core::SimulationConfig digest_faulted_config(std::size_t threads) {
  auto cfg = digest_base_config(threads);
  cfg.faults = fault::parse_fault_specs(
      "outage:dc=1,mtbf=2h,mttr=30m,seed=3;"
      "capacity:dc=2,mtbf=90m,mttr=1h,keep=0.3,seed=5;"
      "latency:dc=0,mtbf=2h,mttr=1h,classes=3,seed=7;"
      "flap:dc=0,mtbf=1h,mttr=20m,seed=11");
  cfg.resilience.enabled = true;
  cfg.resilience.standby_reserve_servers = 0.5;
  cfg.resilience.shed_low_priority = true;
  return cfg;
}

}  // namespace mmog::test
