#include "predict/neural.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/timeseries.hpp"

namespace mmog::predict {
namespace {

util::TimeSeries sine_series(std::size_t n, double period = 120.0,
                             double level = 500.0, double amp = 300.0) {
  util::TimeSeries ts(util::kSampleStepSeconds);
  for (std::size_t t = 0; t < n; ++t) {
    ts.push_back(level +
                 amp * std::sin(2.0 * std::numbers::pi *
                                static_cast<double>(t) / period));
  }
  return ts;
}

NeuralConfig fast_config() {
  NeuralConfig cfg;
  cfg.train.max_eras = 60;
  cfg.train.patience = 10;
  return cfg;
}

TEST(NeuralModelTest, FitRejectsEmptyHistory) {
  EXPECT_THROW(NeuralModel::fit(fast_config(), util::TimeSeries(120.0)),
               std::invalid_argument);
}

TEST(NeuralModelTest, FitRejectsTooShortHistory) {
  const util::TimeSeries tiny(120.0, {1, 2, 3});
  EXPECT_THROW(NeuralModel::fit(fast_config(), tiny), std::invalid_argument);
}

TEST(NeuralModelTest, FitRejectsZeroWindow) {
  auto cfg = fast_config();
  cfg.input_window = 0;
  EXPECT_THROW(NeuralModel::fit(cfg, sine_series(100)),
               std::invalid_argument);
}

TEST(NeuralModelTest, LearnsASmoothPeriodicSignal) {
  const auto series = sine_series(600);
  const auto model = NeuralModel::fit(fast_config(), series);
  // One-step-ahead predictions on the training signal should be accurate to
  // a few percent of the amplitude.
  double abs_err = 0.0, total = 0.0;
  for (std::size_t t = 50; t + 1 < series.size(); ++t) {
    std::vector<double> recent;
    for (std::size_t k = t >= 10 ? t - 10 : 0; k <= t; ++k) {
      recent.push_back(series[k]);
    }
    abs_err += std::abs(model.predict_next(recent) - series[t + 1]);
    total += series[t + 1];
  }
  EXPECT_LT(abs_err / total, 0.05);
}

TEST(NeuralModelTest, PredictNextHandlesShortInput) {
  const auto model = NeuralModel::fit(fast_config(), sine_series(300));
  const std::vector<double> one = {500.0};
  const double pred = model.predict_next(one);
  EXPECT_TRUE(std::isfinite(pred));
  EXPECT_GE(pred, 0.0);
  EXPECT_DOUBLE_EQ(model.predict_next({}), 0.0);
}

TEST(NeuralModelTest, PredictionsAreNonNegative) {
  // Entity counts cannot go below zero even when the signal dives.
  util::TimeSeries diving(util::kSampleStepSeconds);
  for (int t = 0; t < 300; ++t) {
    diving.push_back(std::max(0.0, 300.0 - t * 2.0));
  }
  const auto model = NeuralModel::fit(fast_config(), diving);
  const std::vector<double> recent = {8.0, 6.0, 4.0, 2.0, 0.0, 0.0};
  EXPECT_GE(model.predict_next(recent), 0.0);
}

TEST(NeuralModelTest, FitPoolsMultipleHistories) {
  std::vector<util::TimeSeries> histories = {sine_series(200),
                                             sine_series(200, 90.0, 300.0)};
  const auto model = NeuralModel::fit(fast_config(), histories);
  EXPECT_GT(model.train_result().eras, 0u);
}

TEST(NeuralModelTest, TrainingIsDeterministicGivenSeed) {
  const auto series = sine_series(300);
  const auto a = NeuralModel::fit(fast_config(), series);
  const auto b = NeuralModel::fit(fast_config(), series);
  const std::vector<double> recent = {500, 520, 540, 560, 580, 600};
  EXPECT_DOUBLE_EQ(a.predict_next(recent), b.predict_next(recent));
}

TEST(NeuralPredictorTest, RejectsNullModel) {
  EXPECT_THROW(NeuralPredictor(nullptr), std::invalid_argument);
}

TEST(NeuralPredictorTest, TracksObservedSignal) {
  const auto series = sine_series(600);
  auto model = std::make_shared<const NeuralModel>(
      NeuralModel::fit(fast_config(), series));
  NeuralPredictor p(model);
  EXPECT_EQ(p.name(), "Neural");
  EXPECT_DOUBLE_EQ(p.predict(), 0.0);  // no history yet
  double abs_err = 0.0, total = 0.0;
  for (std::size_t t = 0; t + 1 < series.size(); ++t) {
    p.observe(series[t]);
    if (t > 50) {
      abs_err += std::abs(p.predict() - series[t + 1]);
      total += series[t + 1];
    }
  }
  EXPECT_LT(abs_err / total, 0.05);
}

TEST(NeuralPredictorTest, MakeFreshSharesModelButNotHistory) {
  auto model = std::make_shared<const NeuralModel>(
      NeuralModel::fit(fast_config(), sine_series(300)));
  NeuralPredictor p(model);
  p.observe(500.0);
  auto fresh = p.make_fresh();
  EXPECT_DOUBLE_EQ(fresh->predict(), 0.0);
  EXPECT_NE(p.predict(), 0.0);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The online configurations whose feature paths differ: the raw newest
/// input on or off, delta or level output, and several smoother shapes
/// (a window of degree + 1, the default, and windows longer than the
/// input window).
struct Shape {
  bool raw;
  bool delta;
  std::size_t degree;
  std::size_t window;
};

std::vector<Shape> shapes() {
  std::vector<Shape> out;
  for (const bool raw : {false, true}) {
    for (const bool delta : {false, true}) {
      for (const auto& [degree, window] :
           {std::pair<std::size_t, std::size_t>{1, 2}, {2, 5}, {3, 8},
            {2, 13}}) {
        out.push_back({raw, delta, degree, window});
      }
    }
  }
  return out;
}

std::shared_ptr<const NeuralModel> model_for(const Shape& shape) {
  auto cfg = fast_config();
  cfg.train.max_eras = 5;
  cfg.include_raw_input = shape.raw;
  cfg.predict_delta = shape.delta;
  cfg.smoother_degree = shape.degree;
  cfg.smoother_window = shape.window;
  return std::make_shared<const NeuralModel>(
      NeuralModel::fit(cfg, sine_series(300)));
}

/// A noisy cycle that sometimes drops to zero, so the non-negative clamp
/// and sharp turns both occur.
double random_sample(util::Rng& rng, std::size_t t) {
  if (rng.bernoulli(0.05)) return 0.0;
  return std::max(0.0, 500.0 + 400.0 * std::sin(static_cast<double>(t) / 7.0) +
                           rng.normal(0.0, 60.0));
}

std::string describe(const Shape& s) {
  return "raw=" + std::to_string(s.raw) + " delta=" + std::to_string(s.delta) +
         " degree=" + std::to_string(s.degree) +
         " window=" + std::to_string(s.window);
}

TEST(NeuralPredictorTest, PredictIsBitIdenticalToPredictNextAtEveryStep) {
  // The cached features must give predict_next's bits over the last
  // context() samples at every step: while the history is padded, as it
  // fills and long after it has wrapped.
  util::Rng rng(31);
  for (const auto& shape : shapes()) {
    const auto model = model_for(shape);
    NeuralPredictor p(model);
    std::vector<double> seen;
    for (std::size_t t = 0; t < 70; ++t) {
      seen.push_back(random_sample(rng, t));
      p.observe(seen.back());
      const std::size_t n = std::min(seen.size(), model->context());
      ASSERT_EQ(bits(p.predict()),
                bits(model->predict_next(std::span(seen).last(n))))
          << describe(shape) << " t=" << t;
    }
  }
}

TEST(NeuralPredictorTest, RestoredPredictorIsBitIdentical) {
  // save_state then load_state into a fresh predictor at random steps: the
  // rebuilt feature cache must predict the same bits and save the same
  // payload, and keep doing so as both observe on.
  util::Rng rng(47);
  for (const auto& shape : shapes()) {
    const auto model = model_for(shape);
    NeuralPredictor p(model);
    std::vector<double> seen;
    for (std::size_t t = 0; t < 70; ++t) {
      seen.push_back(random_sample(rng, t));
      p.observe(seen.back());
      if (!rng.bernoulli(0.3)) continue;
      std::vector<double> state;
      p.save_state(state);
      NeuralPredictor q(model);
      q.load_state(state);
      std::vector<double> again;
      q.save_state(again);
      ASSERT_EQ(again, state) << describe(shape) << " t=" << t;
      for (std::size_t k = 0; k < 4; ++k) {
        ASSERT_EQ(bits(q.predict()), bits(p.predict()))
            << describe(shape) << " t=" << t << " k=" << k;
        const double next = random_sample(rng, t + k);
        p.observe(next);
        q.observe(next);
        seen.push_back(next);
      }
      const std::size_t n = std::min(seen.size(), model->context());
      ASSERT_EQ(bits(q.predict()),
                bits(model->predict_next(std::span(seen).last(n))))
          << describe(shape) << " t=" << t;
    }
  }
}

TEST(NeuralPredictorTest, LoadStateRejectsBadPayloads) {
  const auto model = model_for({true, true, 2, 5});
  NeuralPredictor p(model);
  EXPECT_THROW(p.load_state({}), std::invalid_argument);
  // 12 samples claimed, but the context holds 6 + 5 = 11.
  std::vector<double> oversized(13, 1.0);
  oversized[0] = 12.0;
  EXPECT_THROW(p.load_state(oversized), std::invalid_argument);
  EXPECT_THROW(p.load_state(std::vector<double>{2.0, 1.0}),
               std::invalid_argument);
  // Counts no size_t can hold are rejected before any cast.
  EXPECT_THROW(p.load_state(std::vector<double>{-1.0}), std::invalid_argument);
  EXPECT_THROW(p.load_state(std::vector<double>{std::nan("")}),
               std::invalid_argument);
  EXPECT_THROW(p.load_state(std::vector<double>{1e300, 1.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mmog::predict
