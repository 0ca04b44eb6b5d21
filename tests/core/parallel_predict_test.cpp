#include "core/predict_phase.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
  // The first call times slot 0 alone (1 in 64 is sampled).
  EXPECT_EQ(it->second.count, 1u);
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
  EXPECT_EQ(it->second.count, 1u);
  EXPECT_EQ(snap.histograms.find("phase.predict_shard_us"),
            snap.histograms.end());
}

std::uint64_t timed(const obs::Recorder& rec) {
  const auto snap = rec.snapshot();
  const auto it = snap.histograms.find("predictor.inference_us");
  return it == snap.histograms.end() ? 0 : it->second.count;
}

/// Notes, on each predict(), how many inferences the recorder has timed so
/// far. On one thread, slot i was timed iff the next probe (or the count
/// after the run) sees one more than slot i did.
class CountProbe final : public predict::Predictor {
 public:
  CountProbe(const obs::Recorder* rec, std::vector<std::uint64_t>* seen)
      : rec_(rec), seen_(seen) {}
  std::string_view name() const noexcept override { return "CountProbe"; }
  void observe(double) override {}
  double predict() const override {
    seen_->push_back(timed(*rec_));
    return 0.0;
  }
  std::unique_ptr<predict::Predictor> make_fresh() const override {
    return std::make_unique<CountProbe>(rec_, seen_);
  }

 private:
  const obs::Recorder* rec_;
  std::vector<std::uint64_t>* seen_;
};

TEST(ParallelPredictTest, SampledTimingCoversEverySlotOncePerStride) {
  constexpr std::size_t kStride = ParallelPredictor::kInferenceSampleStride;
  // 257 slots: neither the stride nor the four-shard chunk (65) divides
  // it, so a shard that sampled by its own local index would time a
  // different number of slots on some calls.
  constexpr std::size_t kSlots = 257;
  for (const std::size_t threads : {1u, 4u}) {
    Fixture f(kSlots);
    obs::Recorder rec(obs::TraceLevel::kOff);
    ParallelPredictor runner(threads);
    std::uint64_t before = 0;
    for (std::size_t c = 0; c < kStride; ++c) {
      runner.run(f.slots, &rec);
      // Call c times the slots whose index is c modulo the stride.
      const std::uint64_t want = (kSlots - c + kStride - 1) / kStride;
      const std::uint64_t now = timed(rec);
      EXPECT_EQ(now - before, want) << "threads=" << threads << " call " << c;
      before = now;
    }
    EXPECT_EQ(before, kSlots) << "threads=" << threads;
  }

  // Which slots: on one thread, each slot is timed exactly once.
  constexpr std::size_t kProbes = 150;
  obs::Recorder rec(obs::TraceLevel::kOff);
  std::vector<std::uint64_t> seen;
  std::vector<std::unique_ptr<predict::Predictor>> probes;
  std::vector<double> outs(kProbes);
  std::vector<PredictSlot> slots;
  for (std::size_t i = 0; i < kProbes; ++i) {
    probes.push_back(std::make_unique<CountProbe>(&rec, &seen));
    slots.push_back({probes.back().get(), &outs[i]});
  }
  ParallelPredictor runner(1);
  std::vector<int> times_timed(kProbes, 0);
  for (std::size_t c = 0; c < kStride; ++c) {
    seen.clear();
    runner.run(slots, &rec);
    seen.push_back(timed(rec));
    for (std::size_t i = 0; i < kProbes; ++i) {
      times_timed[i] += static_cast<int>(seen[i + 1] - seen[i]);
      if (seen[i + 1] != seen[i]) {
        EXPECT_EQ(i % kStride, c) << "slot " << i;
      }
    }
  }
  EXPECT_EQ(times_timed, std::vector<int>(kProbes, 1));
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
