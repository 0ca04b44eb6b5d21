// Property-based tests over the whole predictor family: every predictor
// must satisfy the same behavioural contract regardless of algorithm, and
// basic accuracy sanity must hold on canonical signal families.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>
#include <string>

#include "predict/ar.hpp"
#include "predict/evaluate.hpp"
#include "predict/holt_winters.hpp"
#include "predict/neural.hpp"
#include "predict/simple.hpp"
#include "util/rng.hpp"
#include "util/timeseries.hpp"

namespace mmog::predict {
namespace {

// gtest lists a parameter that has no printer as its raw bytes, and CMake's
// test discovery copies that listing into the ctest test names. A leading
// std::string put its heap pointer there, so the names changed from build
// to build (ASLR, binary path, allocation order). Holding the name inline
// makes the leading bytes the name itself; the size stays 64 (libstdc++)
// so the "64-byte object" text of the names stays too.
struct PredictorCase {
  char name[32];
  PredictorFactory factory;
};

util::TimeSeries training_signal() {
  util::TimeSeries ts(120.0);
  util::Rng rng(5);
  for (int t = 0; t < 800; ++t) {
    ts.push_back(std::max(
        0.0, 400.0 + 200.0 * std::sin(2.0 * std::numbers::pi * t / 120.0) +
                 rng.normal(0.0, 15.0)));
  }
  return ts;
}

std::vector<PredictorCase> all_predictors() {
  predict::NeuralConfig ncfg;
  ncfg.train.max_eras = 20;
  ncfg.train.patience = 4;
  auto neural_model = std::make_shared<const NeuralModel>(
      NeuralModel::fit(ncfg, training_signal()));
  std::vector<util::TimeSeries> hist = {training_signal()};
  auto ar_model = std::make_shared<const ArModel>(ArModel::fit(3, hist));
  return {
      {"LastValue", [] { return std::make_unique<LastValuePredictor>(); }},
      {"Average", [] { return std::make_unique<AveragePredictor>(); }},
      {"MovingAverage",
       [] { return std::make_unique<MovingAveragePredictor>(5); }},
      {"SlidingMedian",
       [] { return std::make_unique<SlidingWindowMedianPredictor>(5); }},
      {"ExpSmoothing",
       [] { return std::make_unique<ExponentialSmoothingPredictor>(0.5); }},
      {"Holt", [] { return std::make_unique<HoltPredictor>(); }},
      {"HoltWinters",
       [] { return std::make_unique<HoltWintersPredictor>(120); }},
      {"Drift", [] { return std::make_unique<DriftPredictor>(); }},
      {"Neural",
       [neural_model] {
         return std::make_unique<NeuralPredictor>(neural_model);
       }},
      {"AR", [ar_model] { return std::make_unique<ArPredictor>(ar_model); }},
  };
}

class PredictorContract : public ::testing::TestWithParam<PredictorCase> {};

TEST_P(PredictorContract, PredictsZeroBeforeAnyObservation) {
  auto p = GetParam().factory();
  EXPECT_DOUBLE_EQ(p->predict(), 0.0);
}

TEST_P(PredictorContract, PredictionsAreFiniteAndNonNegative) {
  auto p = GetParam().factory();
  util::Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    p->observe(std::max(0.0, rng.normal(300.0, 200.0)));
    const double pred = p->predict();
    EXPECT_TRUE(std::isfinite(pred)) << GetParam().name;
    EXPECT_GE(pred, 0.0) << GetParam().name;
  }
}

TEST_P(PredictorContract, ConvergesOnAConstantSignal) {
  auto p = GetParam().factory();
  for (int i = 0; i < 600; ++i) p->observe(250.0);
  EXPECT_NEAR(p->predict(), 250.0, 12.5) << GetParam().name;
}

TEST_P(PredictorContract, DeterministicGivenSameInput) {
  auto a = GetParam().factory();
  auto b = GetParam().factory();
  util::Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.uniform(0.0, 1000.0);
    a->observe(v);
    b->observe(v);
  }
  EXPECT_DOUBLE_EQ(a->predict(), b->predict()) << GetParam().name;
}

TEST_P(PredictorContract, MakeFreshHasNoHistory) {
  auto p = GetParam().factory();
  for (int i = 0; i < 50; ++i) p->observe(777.0);
  auto fresh = p->make_fresh();
  EXPECT_DOUBLE_EQ(fresh->predict(), 0.0) << GetParam().name;
  EXPECT_EQ(fresh->name(), p->name());
}

TEST_P(PredictorContract, ObserveAfterPredictDoesNotCrashOrDiverge) {
  auto p = GetParam().factory();
  // Alternate observe/predict over a hostile signal: spikes and zeros.
  util::Rng rng(17);
  for (int i = 0; i < 300; ++i) {
    p->observe(rng.bernoulli(0.1) ? 5000.0 : 0.0);
    EXPECT_TRUE(std::isfinite(p->predict())) << GetParam().name;
  }
}

TEST_P(PredictorContract, BoundedErrorOnSlowSinusoid) {
  // Every reasonable predictor keeps its error under 100 % of the mean on a
  // slow clean sinusoid (the Average predictor is the worst at ~40 %).
  auto p = GetParam().factory();
  std::vector<double> series;
  for (int t = 0; t < 700; ++t) {
    series.push_back(500.0 +
                     250.0 * std::sin(2.0 * std::numbers::pi * t / 240.0));
  }
  const double err = series_prediction_error(*p, series, 300).value();
  EXPECT_LT(err, 100.0) << GetParam().name;
  EXPECT_GE(err, 0.0) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(AllPredictors, PredictorContract,
                         ::testing::ValuesIn(all_predictors()),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace mmog::predict
