#include "core/predict_phase.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "predict/predictor.hpp"

namespace mmog::core {
namespace {

/// Deterministic stand-in predictor: predict() is a pure function of the
/// constructor argument, so slot outputs are fully checkable.
class FixedPredictor final : public predict::Predictor {
 public:
  explicit FixedPredictor(double value) : value_(value) {}
  std::string_view name() const noexcept override { return "Fixed"; }
  void observe(double) override {}
  double predict() const override { return value_; }
  std::unique_ptr<predict::Predictor> make_fresh() const override {
    return std::make_unique<FixedPredictor>(value_);
  }

 private:
  double value_;
};

class ThrowingPredictor final : public predict::Predictor {
 public:
  std::string_view name() const noexcept override { return "Throwing"; }
  void observe(double) override {}
  double predict() const override {
    throw std::runtime_error("predictor exploded");
  }
  std::unique_ptr<predict::Predictor> make_fresh() const override {
    return std::make_unique<ThrowingPredictor>();
  }
};

/// n predictors whose forecasts are 0.5, 1.5, 2.5, ... plus slots wiring
/// each one to outs[i].
struct Fixture {
  explicit Fixture(std::size_t n) : outs(n, -1.0) {
    predictors.reserve(n);
    slots.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      predictors.push_back(
          std::make_unique<FixedPredictor>(static_cast<double>(i) + 0.5));
      slots.push_back({predictors.back().get(), &outs[i]});
    }
  }
  std::vector<std::unique_ptr<predict::Predictor>> predictors;
  std::vector<double> outs;
  std::vector<PredictSlot> slots;
};

TEST(ParallelPredictTest, SerialRunFillsEverySlot) {
  Fixture f(17);
  ParallelPredictor runner(1);
  EXPECT_EQ(runner.threads(), 1u);
  runner.run(f.slots, nullptr);
  for (std::size_t i = 0; i < f.outs.size(); ++i) {
    EXPECT_DOUBLE_EQ(f.outs[i], static_cast<double>(i) + 0.5) << i;
  }
}

TEST(ParallelPredictTest, ParallelRunMatchesSerialExactly) {
  // More slots than workers forces real sharding; every slot must receive
  // its own predictor's value regardless of which worker computed it.
  for (const std::size_t threads : {2u, 4u, 8u}) {
    Fixture serial(257);
    Fixture parallel(257);
    ParallelPredictor one(1);
    ParallelPredictor many(threads);
    EXPECT_EQ(many.threads(), threads);
    one.run(serial.slots, nullptr);
    many.run(parallel.slots, nullptr);
    EXPECT_EQ(serial.outs, parallel.outs) << "threads=" << threads;
  }
}

TEST(ParallelPredictTest, ZeroThreadsResolvesToHardwareConcurrency) {
  ParallelPredictor runner(0);
  EXPECT_GE(runner.threads(), 1u);
  Fixture f(9);
  runner.run(f.slots, nullptr);
  for (std::size_t i = 0; i < f.outs.size(); ++i) {
    EXPECT_DOUBLE_EQ(f.outs[i], static_cast<double>(i) + 0.5);
  }
}

TEST(ParallelPredictTest, EmptySlotListIsANoop) {
  ParallelPredictor runner(4);
  runner.run({}, nullptr);
}

TEST(ParallelPredictTest, FewerSlotsThanThreadsStillFillsAll) {
  Fixture f(3);
  ParallelPredictor runner(8);
  runner.run(f.slots, nullptr);
  EXPECT_DOUBLE_EQ(f.outs[0], 0.5);
  EXPECT_DOUBLE_EQ(f.outs[1], 1.5);
  EXPECT_DOUBLE_EQ(f.outs[2], 2.5);
}

TEST(ParallelPredictTest, WorkerExceptionRethrownOnCaller) {
  Fixture f(10);
  ThrowingPredictor bad;
  double sink = 0.0;
  f.slots[7] = {&bad, &sink};
  ParallelPredictor runner(4);
  EXPECT_THROW(runner.run(f.slots, nullptr), std::runtime_error);
}

TEST(ParallelPredictTest, RecorderTimesEveryInference) {
  Fixture f(25);
  obs::Recorder rec(obs::TraceLevel::kOff);
  ParallelPredictor runner(4);
  runner.run(f.slots, &rec);
  const auto snap = rec.snapshot();
  const auto it = snap.histograms.find("predictor.inference_us");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->second.count, 25u);
  // The parallel path also times each shard's wall clock.
  EXPECT_NE(snap.histograms.find("phase.predict_shard_us"),
            snap.histograms.end());
}

TEST(ParallelPredictTest, SerialRecorderPathSkipsShardTimings) {
  Fixture f(25);
  obs::Recorder rec(obs::TraceLevel::kOff);
  ParallelPredictor runner(1);
  runner.run(f.slots, &rec);
  const auto snap = rec.snapshot();
  const auto it = snap.histograms.find("predictor.inference_us");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->second.count, 25u);
  EXPECT_EQ(snap.histograms.find("phase.predict_shard_us"),
            snap.histograms.end());
}

TEST(ParallelPredictTest, RunnerIsReusableAcrossSteps) {
  // core::simulate calls run() once per step on the same runner; outputs
  // must be freshly written each time.
  Fixture f(40);
  ParallelPredictor runner(4);
  for (int step = 0; step < 50; ++step) {
    std::fill(f.outs.begin(), f.outs.end(), -1.0);
    runner.run(f.slots, nullptr);
    for (std::size_t i = 0; i < f.outs.size(); ++i) {
      ASSERT_DOUBLE_EQ(f.outs[i], static_cast<double>(i) + 0.5)
          << "step " << step << " slot " << i;
    }
  }
}

}  // namespace
}  // namespace mmog::core
