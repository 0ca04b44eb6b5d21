#pragma once

#include <cstddef>
#include <deque>

#include "predict/predictor.hpp"
#include "util/checked_count.hpp"

namespace mmog::predict {

/// Predicts the last observed value (the paper's "Last value"; zero cost,
/// surprisingly competitive on MMOG signals — second best overall in §V-B).
class LastValuePredictor final : public Predictor {
 public:
  std::string_view name() const noexcept override { return "Last value"; }
  void observe(double value) override { last_ = value; }
  double predict() const override { return last_; }
  std::unique_ptr<Predictor> make_fresh() const override {
    return std::make_unique<LastValuePredictor>();
  }
  void save_state(std::vector<double>& out) const override {
    out.push_back(last_);
  }
  void load_state(std::span<const double> in) override {
    if (in.size() != 1) {
      throw std::invalid_argument("LastValuePredictor: bad state size");
    }
    last_ = in[0];
  }

 private:
  double last_ = 0.0;
};

/// Predicts the running mean of all observed values (the paper's "Average";
/// good on stationary Type I signals, poor once the level drifts).
class AveragePredictor final : public Predictor {
 public:
  std::string_view name() const noexcept override { return "Average"; }
  void observe(double value) override {
    sum_ += value;
    ++count_;
  }
  double predict() const override {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  std::unique_ptr<Predictor> make_fresh() const override {
    return std::make_unique<AveragePredictor>();
  }
  void save_state(std::vector<double>& out) const override {
    out.push_back(sum_);
    out.push_back(static_cast<double>(count_));
  }
  void load_state(std::span<const double> in) override {
    if (in.size() != 2) {
      throw std::invalid_argument("AveragePredictor: bad state size");
    }
    count_ = util::checked_count(in[1], "AveragePredictor: count");
    sum_ = in[0];
  }

 private:
  double sum_ = 0.0;
  std::size_t count_ = 0;
};

/// Predicts the mean of the last `window` observations.
class MovingAveragePredictor final : public Predictor {
 public:
  explicit MovingAveragePredictor(std::size_t window = 5);
  std::string_view name() const noexcept override { return "Moving average"; }
  void observe(double value) override;
  double predict() const override;
  std::unique_ptr<Predictor> make_fresh() const override {
    return std::make_unique<MovingAveragePredictor>(window_);
  }
  /// The running sum is saved verbatim, not recomputed from the window:
  /// it is path-dependent floating-point state and must survive bit-exact.
  void save_state(std::vector<double>& out) const override;
  void load_state(std::span<const double> in) override;

 private:
  std::size_t window_;
  std::deque<double> values_;
  double sum_ = 0.0;
};

/// Predicts the median of the last `window` observations (the paper's
/// "Sliding window median").
class SlidingWindowMedianPredictor final : public Predictor {
 public:
  explicit SlidingWindowMedianPredictor(std::size_t window = 5);
  std::string_view name() const noexcept override {
    return "Sliding window median";
  }
  void observe(double value) override;
  double predict() const override;
  std::unique_ptr<Predictor> make_fresh() const override {
    return std::make_unique<SlidingWindowMedianPredictor>(window_);
  }
  void save_state(std::vector<double>& out) const override;
  void load_state(std::span<const double> in) override;

 private:
  std::size_t window_;
  std::deque<double> values_;
};

/// Exponential smoothing with factor alpha: s <- alpha*x + (1-alpha)*s.
/// The paper evaluates alpha = 0.25, 0.50 and 0.75.
class ExponentialSmoothingPredictor final : public Predictor {
 public:
  explicit ExponentialSmoothingPredictor(double alpha = 0.5);
  std::string_view name() const noexcept override { return name_; }
  void observe(double value) override;
  double predict() const override { return state_; }
  std::unique_ptr<Predictor> make_fresh() const override {
    return std::make_unique<ExponentialSmoothingPredictor>(alpha_);
  }
  double alpha() const noexcept { return alpha_; }
  void save_state(std::vector<double>& out) const override;
  void load_state(std::span<const double> in) override;

 private:
  double alpha_;
  double state_ = 0.0;
  bool primed_ = false;
  std::string name_;
};

}  // namespace mmog::predict
