#include "core/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>

#include "predict/simple.hpp"

namespace mmog::core {
namespace {

using util::ResourceKind;

// A small one-region workload: `groups` sine-shaped server groups peaking at
// `peak` players, sampled for `steps` 2-minute steps.
trace::WorldTrace sine_workload(std::size_t groups, std::size_t steps,
                                double peak = 1600.0, double floor = 400.0) {
  trace::WorldTrace world;
  trace::RegionalTrace region;
  region.name = "Europe";
  for (std::size_t g = 0; g < groups; ++g) {
    trace::ServerGroupTrace group;
    group.name = "G";
    group.name += std::to_string(g);
    group.players = util::TimeSeries(util::kSampleStepSeconds);
    for (std::size_t t = 0; t < steps; ++t) {
      const double phase = 2.0 * std::numbers::pi *
                           static_cast<double>(t) / 720.0;
      group.players.push_back(
          floor + (peak - floor) * 0.5 * (1.0 - std::cos(phase)));
    }
    region.groups.push_back(std::move(group));
  }
  world.regions.push_back(std::move(region));
  return world;
}

std::vector<dc::DataCenterSpec> amsterdam_dc(int policy = 1,
                                             std::size_t machines = 40) {
  dc::DataCenterSpec d;
  d.name = "NL";
  d.country = "Netherlands";
  d.continent = "Europe";
  d.location = {52.37, 4.90};
  d.machines = machines;
  d.policy = dc::HostingPolicy::preset(policy);
  return {d};
}

predict::PredictorFactory last_value_factory() {
  return [] { return std::make_unique<predict::LastValuePredictor>(); };
}

SimulationConfig base_config(std::size_t groups = 4, std::size_t steps = 720) {
  SimulationConfig cfg;
  cfg.datacenters = amsterdam_dc();
  GameSpec game;
  game.name = "TestGame";
  game.load = LoadModel{UpdateModel::kQuadratic, 2000.0};
  game.latency_tolerance = dc::DistanceClass::kVeryFar;
  game.workload = sine_workload(groups, steps);
  cfg.games.push_back(std::move(game));
  cfg.predictor = last_value_factory();
  return cfg;
}

TEST(SimulationTest, RejectsInvalidConfigurations) {
  SimulationConfig empty;
  EXPECT_THROW(simulate(empty), std::invalid_argument);

  auto no_predictor = base_config();
  no_predictor.predictor = nullptr;
  EXPECT_THROW(simulate(no_predictor), std::invalid_argument);

  auto no_dc = base_config();
  no_dc.datacenters.clear();
  EXPECT_THROW(simulate(no_dc), std::invalid_argument);

  auto bad_region = base_config();
  bad_region.games[0].workload.regions[0].name = "Nowhere";
  EXPECT_THROW(simulate(bad_region), std::out_of_range);
}

TEST(SimulationTest, RunsFullTraceByDefault) {
  const auto result = simulate(base_config(2, 100));
  EXPECT_EQ(result.steps, 100u);
  EXPECT_EQ(result.metrics.steps(), 100u);
}

TEST(SimulationTest, StepLimitIsRespected) {
  auto cfg = base_config(2, 100);
  cfg.steps = 40;
  EXPECT_EQ(simulate(cfg).steps, 40u);
}

TEST(SimulationTest, DynamicAllocationCoversLoadAfterWarmup) {
  const auto result = simulate(base_config());
  const auto& steps = result.metrics.step_metrics();
  // After warm-up the allocation should cover the (slow-moving) load: the
  // average under-allocation stays tiny.
  const double avg_under =
      result.metrics.avg_under_allocation_pct(ResourceKind::kCpu);
  EXPECT_GT(avg_under, -1.0);
  // And the allocation is never wildly above the demand.
  EXPECT_LT(result.metrics.avg_over_allocation_pct(ResourceKind::kCpu),
            200.0);
  // Allocated resources exist.
  EXPECT_GT(steps.back().allocated.cpu(), 0.0);
}

TEST(SimulationTest, StaticAllocationNeverUnderAllocates) {
  auto cfg = base_config();
  cfg.mode = AllocationMode::kStatic;
  cfg.predictor = nullptr;  // static mode needs no predictor
  const auto result = simulate(cfg);
  EXPECT_NEAR(result.metrics.avg_under_allocation_pct(ResourceKind::kCpu),
              0.0, 1e-9);
  EXPECT_EQ(result.metrics.significant_events(), 0u);
  EXPECT_DOUBLE_EQ(result.unplaced_cpu_unit_steps, 0.0);
}

TEST(SimulationTest, StaticOverAllocatesMoreThanDynamic) {
  // The paper's headline: static provisioning is several times less
  // efficient than dynamic (§V-B, Fig 8).
  auto dynamic_cfg = base_config();
  const auto dyn = simulate(dynamic_cfg);
  auto static_cfg = base_config();
  static_cfg.mode = AllocationMode::kStatic;
  const auto sta = simulate(static_cfg);
  EXPECT_GT(sta.metrics.avg_over_allocation_pct(ResourceKind::kCpu),
            2.0 * dyn.metrics.avg_over_allocation_pct(ResourceKind::kCpu));
}

TEST(SimulationTest, BulkQuantizationInflatesNetworkAllocation) {
  // HP-1 rents inbound bandwidth in 6-unit bulks: the ExtNet[in]
  // over-allocation must dwarf the CPU over-allocation (Table V).
  const auto result = simulate(base_config());
  EXPECT_GT(result.metrics.avg_over_allocation_pct(ResourceKind::kNetIn),
            5.0 * result.metrics.avg_over_allocation_pct(ResourceKind::kCpu));
}

TEST(SimulationTest, OutOfToleranceDemandGoesUnplaced) {
  auto cfg = base_config(2, 50);
  cfg.games[0].latency_tolerance = dc::DistanceClass::kSameLocation;
  // Move the only data center to Sydney: nothing is within tolerance.
  cfg.datacenters[0].location = {-33.87, 151.21};
  const auto result = simulate(cfg);
  EXPECT_GT(result.unplaced_cpu_unit_steps, 0.0);
  // All demand goes unserved: the shortfall equals the generated load (the
  // 50-step slice starts near the diurnal trough, so a few percent).
  EXPECT_LT(result.metrics.avg_under_allocation_pct(ResourceKind::kCpu),
            -2.0);
  EXPECT_GT(result.metrics.significant_events(), 25u);
}

TEST(SimulationTest, CapacityExhaustionCausesUnderAllocation) {
  // Run into the diurnal peak so the eight groups far exceed one machine.
  auto cfg = base_config(8, 400);
  cfg.datacenters = amsterdam_dc(1, 1);  // one machine for eight busy groups
  const auto result = simulate(cfg);
  EXPECT_LT(result.metrics.avg_under_allocation_pct(ResourceKind::kCpu),
            -1.0);
  EXPECT_GT(result.unplaced_cpu_unit_steps, 0.0);
}

TEST(SimulationTest, ReportsPerDataCenterUsage) {
  auto cfg = base_config(3, 200);
  const auto result = simulate(cfg);
  ASSERT_EQ(result.datacenters.size(), 1u);
  const auto& usage = result.datacenters[0];
  EXPECT_EQ(usage.name, "NL");
  EXPECT_DOUBLE_EQ(usage.capacity_cpu, 40.0);
  EXPECT_GT(usage.avg_allocated_cpu, 0.0);
  EXPECT_GE(usage.peak_allocated_cpu, usage.avg_allocated_cpu);
  ASSERT_TRUE(usage.avg_allocated_by_origin.contains("Europe"));
  EXPECT_NEAR(usage.avg_allocated_by_origin.at("Europe"),
              usage.avg_allocated_cpu, 0.3);
}

TEST(SimulationTest, TimeBulkKeepsAllocationsPinned) {
  // With a 2-day time bulk (HP-11) nothing can be released inside a 1-day
  // run: the allocated CPU can only grow.
  auto cfg = base_config(3, 720);
  cfg.datacenters = amsterdam_dc(11);
  const auto result = simulate(cfg);
  const auto& steps = result.metrics.step_metrics();
  double prev = 0.0;
  for (const auto& m : steps) {
    EXPECT_GE(m.allocated.cpu() + 1e-9, prev);
    prev = m.allocated.cpu();
  }
}

TEST(SimulationTest, ShortTimeBulkAllowsRelease) {
  // HP-3's 3 h time bulk lets the operator release during the diurnal
  // trough: the allocation must shrink at some step.
  auto cfg = base_config(3, 720);
  cfg.datacenters = amsterdam_dc(3);
  const auto result = simulate(cfg);
  const auto& steps = result.metrics.step_metrics();
  bool shrank = false;
  double prev = 0.0;
  for (const auto& m : steps) {
    if (m.allocated.cpu() < prev - 1e-9) shrank = true;
    prev = m.allocated.cpu();
  }
  EXPECT_TRUE(shrank);
}

TEST(SimulationTest, DeterministicAcrossRuns) {
  const auto a = simulate(base_config());
  const auto b = simulate(base_config());
  EXPECT_DOUBLE_EQ(a.metrics.avg_over_allocation_pct(ResourceKind::kCpu),
                   b.metrics.avg_over_allocation_pct(ResourceKind::kCpu));
  EXPECT_EQ(a.metrics.significant_events(), b.metrics.significant_events());
}

TEST(SimulationTest, PriorityModeServesHighPriorityFirst) {
  // Two games compete for one tiny data center; the prioritized game
  // suffers fewer shortfalls than the other.
  auto make_two_games = [](bool prioritize) {
    SimulationConfig cfg;
    cfg.datacenters = amsterdam_dc(1, 2);  // scarce capacity
    for (int g = 0; g < 2; ++g) {
      GameSpec game;
      game.name = g == 0 ? "VIP" : "BestEffort";
      game.priority = g == 0 ? 10 : 0;
      game.load = LoadModel{UpdateModel::kQuadratic, 2000.0};
      game.workload = sine_workload(4, 200);
      cfg.games.push_back(std::move(game));
    }
    cfg.predictor = [] {
      return std::make_unique<predict::LastValuePredictor>();
    };
    cfg.prioritize_by_interaction = prioritize;
    return cfg;
  };
  // With prioritization on, results must still be valid and deterministic.
  const auto result = simulate(make_two_games(true));
  EXPECT_EQ(result.steps, 200u);
  EXPECT_GT(result.unplaced_cpu_unit_steps, 0.0);
}


TEST(SimulationTest, SafetyFactorTradesWasteForEvents) {
  // The SS V-C knob: more safety margin means more over-allocation and
  // fewer (or equal) significant under-allocation events.
  auto lo_cfg = base_config(4, 720);
  lo_cfg.safety_factor = 0.0;
  const auto lo = simulate(lo_cfg);
  auto hi_cfg = base_config(4, 720);
  hi_cfg.safety_factor = 3.0;
  const auto hi = simulate(hi_cfg);
  EXPECT_GE(hi.metrics.avg_over_allocation_pct(ResourceKind::kCpu),
            lo.metrics.avg_over_allocation_pct(ResourceKind::kCpu));
  EXPECT_LE(hi.metrics.significant_events(),
            lo.metrics.significant_events());
  EXPECT_GE(hi.metrics.avg_under_allocation_pct(ResourceKind::kCpu),
            lo.metrics.avg_under_allocation_pct(ResourceKind::kCpu));
}

TEST(SimulationTest, ProvisioningDelayWorsensShortfall) {
  // With a setup delay, freshly granted resources serve load only later:
  // under-allocation must be at least as bad as with instant provisioning.
  auto instant_cfg = base_config(4, 720);
  const auto instant = simulate(instant_cfg);
  auto delayed_cfg = base_config(4, 720);
  delayed_cfg.provisioning_delay_steps = 10;
  const auto delayed = simulate(delayed_cfg);
  EXPECT_LE(delayed.metrics.avg_under_allocation_pct(ResourceKind::kCpu),
            instant.metrics.avg_under_allocation_pct(ResourceKind::kCpu));
  EXPECT_GE(delayed.metrics.significant_events(),
            instant.metrics.significant_events());
}

TEST(SimulationTest, TotalCostScalesWithHorizon) {
  auto short_cfg = base_config(3, 720);
  short_cfg.steps = 200;
  const auto short_run = simulate(short_cfg);
  auto long_cfg = base_config(3, 720);
  long_cfg.steps = 600;
  const auto long_run = simulate(long_cfg);
  EXPECT_GT(long_run.total_cost, 2.0 * short_run.total_cost);
}

TEST(OfferAmountTest, UnconstrainedPolicyOffersExactOverlap) {
  // With every bulk "n/a" there are no bundles: the offer is exactly the
  // component-wise overlap of need and free capacity.
  dc::HostingPolicy exact;
  exact.bulk = {};
  const auto need = util::ResourceVector::of(3.0, 8.0, 2.0, 1.0);
  const auto free = util::ResourceVector::of(5.0, 4.0, 2.0, 0.0);
  const auto offer = offer_amount(need, free, exact);
  EXPECT_DOUBLE_EQ(offer.cpu(), 3.0);      // need-limited
  EXPECT_DOUBLE_EQ(offer.memory(), 4.0);   // free-limited
  EXPECT_DOUBLE_EQ(offer.net_in(), 2.0);   // exact overlap
  EXPECT_DOUBLE_EQ(offer.net_out(), 0.0);  // nothing free
}

TEST(OfferAmountTest, ClampsNegativeComponentsToZero) {
  dc::HostingPolicy exact;
  exact.bulk = {};
  const auto offer = offer_amount(util::ResourceVector::of(-2.0, 1.0, 0, 0),
                                  util::ResourceVector::of(5.0, -3.0, 0, 0),
                                  exact);
  EXPECT_DOUBLE_EQ(offer.cpu(), 0.0);
  EXPECT_DOUBLE_EQ(offer.memory(), 0.0);
}

TEST(OfferAmountTest, BundledResourcesComeInBulkMultiples) {
  // HP-3 constrains CPU (0.22) and memory (2.0): those components arrive as
  // whole bundles, while the unconstrained network kinds stay exact.
  const auto hp3 = dc::HostingPolicy::preset(3);
  const auto need = util::ResourceVector::of(0.5, 1.0, 3.0, 0.5);
  const auto free = util::ResourceVector::of(10.0, 100.0, 2.0, 2.0);
  const auto offer = offer_amount(need, free, hp3);
  // bundles_needed = max(ceil(.5/.22)=3, ceil(1/2)=1) = 3 bundles.
  EXPECT_NEAR(offer.cpu(), 3 * 0.22, 1e-9);
  EXPECT_DOUBLE_EQ(offer.memory(), 3 * 2.0);
  EXPECT_DOUBLE_EQ(offer.net_in(), 2.0);   // exact, free-limited
  EXPECT_DOUBLE_EQ(offer.net_out(), 0.5);  // exact, need-limited
}

TEST(OfferAmountTest, BundleCountLimitedByFreeCapacity) {
  const auto hp3 = dc::HostingPolicy::preset(3);
  const auto need = util::ResourceVector::of(2.2, 1.0, 0, 0);  // wants 10
  const auto free = util::ResourceVector::of(0.5, 100.0, 0, 0);  // fits 2
  const auto offer = offer_amount(need, free, hp3);
  EXPECT_NEAR(offer.cpu(), 2 * 0.22, 1e-9);
  EXPECT_DOUBLE_EQ(offer.memory(), 2 * 2.0);
}

TEST(NeuralFactoryTest, BuildsWorkingPredictors) {
  const auto workload = sine_workload(3, 400);
  predict::NeuralConfig cfg;
  cfg.train.max_eras = 30;
  cfg.train.patience = 5;
  const auto factory = neural_factory_from_workload(workload, 300, cfg, 2);
  auto p = factory();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->name(), "Neural");
  // Feed a ramp; prediction should be in a sane range.
  for (double v : {500.0, 550.0, 600.0, 650.0, 700.0, 750.0}) p->observe(v);
  const double pred = p->predict();
  EXPECT_GT(pred, 300.0);
  EXPECT_LT(pred, 1500.0);
}

TEST(NeuralFactoryTest, RejectsEmptyWorkload) {
  trace::WorldTrace empty;
  EXPECT_THROW(neural_factory_from_workload(empty, 100),
               std::invalid_argument);
}

}  // namespace
}  // namespace mmog::core
