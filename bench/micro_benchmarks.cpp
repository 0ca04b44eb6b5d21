// Micro-benchmarks of what perfbench does not time: emulator stepping,
// session packet emulation, matcher candidate lists, and the parallel
// predict phase alone and inside a simulated day, per thread count.
// Trace generation, neural training and the serial simulator are
// perfbench's trace.generate_s, nn.fit_s and core.simulate_s.

#include <benchmark/benchmark.h>

#include "bench/common.hpp"
#include "core/predict_phase.hpp"
#include "emu/datasets.hpp"
#include "net/session.hpp"

using namespace mmog;

namespace {

void BM_EmulatorSample(benchmark::State& state) {
  auto sets = emu::table1_datasets();
  emu::Emulator emulator(emu::WorldConfig{}, sets[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(emulator.step_sample());
  }
}
BENCHMARK(BM_EmulatorSample)->Unit(benchmark::kMicrosecond);

void BM_SessionEmulation(benchmark::State& state) {
  net::SessionConfig cfg;
  cfg.interaction = net::InteractionClass::kFastPaced;
  cfg.duration_seconds = 60.0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    benchmark::DoNotOptimize(net::emulate_session(cfg));
  }
}
BENCHMARK(BM_SessionEmulation)->Unit(benchmark::kMicrosecond);

void BM_MatcherCandidates(benchmark::State& state) {
  const auto dcs = dc::paper_ecosystem();
  const core::Matcher matcher(dcs);
  const auto site = dc::region_site("Europe");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        matcher.candidates(site.location, dc::DistanceClass::kVeryFar));
  }
}
BENCHMARK(BM_MatcherCandidates);

// The isolated predict phase: one high-order AR predictor per server group,
// sharded across the worker count given by Arg. The 4-thread run divided by
// the 1-thread run is the predict-phase speedup acceptance number (on a
// single-core machine all arguments collapse to the serial time).
void BM_PredictPhase(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kGroups = 256;
  constexpr std::size_t kOrder = 128;

  auto tcfg = trace::RuneScapeModelConfig::paper_default();
  tcfg.steps = util::samples_per_days(1);
  tcfg.seed = 31;
  const auto world = trace::generate(tcfg);
  std::vector<util::TimeSeries> histories = {
      world.regions[0].groups[0].players};
  const auto model = std::make_shared<const predict::ArModel>(
      predict::ArModel::fit(kOrder, histories));

  std::vector<std::unique_ptr<predict::Predictor>> predictors;
  std::vector<double> outs(kGroups, 0.0);
  std::vector<core::PredictSlot> slots;
  predictors.reserve(kGroups);
  slots.reserve(kGroups);
  const auto& samples = world.regions[0].groups[0].players;
  for (std::size_t g = 0; g < kGroups; ++g) {
    auto p = std::make_unique<predict::ArPredictor>(model);
    for (std::size_t t = 0; t < kOrder; ++t) {
      p->observe(samples[(g + t) % samples.size()]);
    }
    slots.push_back({p.get(), &outs[g]});
    predictors.push_back(std::move(p));
  }

  core::ParallelPredictor runner(threads);
  for (auto _ : state) {
    runner.run(slots, nullptr);
    benchmark::DoNotOptimize(outs.data());
    benchmark::ClobberMemory();
  }
  state.counters["slots"] = static_cast<double>(kGroups);
  state.counters["workers"] = static_cast<double>(runner.threads());
}
BENCHMARK(BM_PredictPhase)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond);

// End-to-end provisioning day with the predict phase timed by the obs phase
// profiler; the "predict_phase_ms" counter is the phase.predict_us sum as
// seen by the profiler, per thread count.
void BM_ProvisioningDayThreaded(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  auto tcfg = trace::RuneScapeModelConfig::paper_default();
  tcfg.steps = util::samples_per_days(1);
  tcfg.seed = 37;
  const auto world = trace::generate(tcfg);
  std::vector<util::TimeSeries> histories = {
      world.regions[0].groups[0].players};
  const auto model = std::make_shared<const predict::ArModel>(
      predict::ArModel::fit(64, histories));

  double predict_us = 0.0;
  for (auto _ : state) {
    obs::Recorder rec(obs::TraceLevel::kOff);
    auto sim = bench::standard_config(world);
    sim.predictor = [&model] {
      return std::make_unique<predict::ArPredictor>(model);
    };
    sim.threads = threads;
    sim.recorder = &rec;
    benchmark::DoNotOptimize(core::simulate(sim));
    const auto snap = rec.snapshot();
    const auto it = snap.histograms.find("phase.predict_us");
    if (it != snap.histograms.end()) predict_us += it->second.sum;
  }
  state.counters["predict_phase_ms"] = benchmark::Counter(
      predict_us / 1000.0, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ProvisioningDayThreaded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
