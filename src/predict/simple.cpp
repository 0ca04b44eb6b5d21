#include "predict/simple.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/checked_count.hpp"

namespace mmog::predict {

MovingAveragePredictor::MovingAveragePredictor(std::size_t window)
    : window_(window) {
  if (window_ == 0) {
    throw std::invalid_argument("MovingAveragePredictor: window == 0");
  }
}

void MovingAveragePredictor::observe(double value) {
  values_.push_back(value);
  sum_ += value;
  if (values_.size() > window_) {
    sum_ -= values_.front();
    values_.pop_front();
  }
}

double MovingAveragePredictor::predict() const {
  if (values_.empty()) return 0.0;
  return sum_ / static_cast<double>(values_.size());
}

void MovingAveragePredictor::save_state(std::vector<double>& out) const {
  out.push_back(sum_);
  out.push_back(static_cast<double>(values_.size()));
  out.insert(out.end(), values_.begin(), values_.end());
}

void MovingAveragePredictor::load_state(std::span<const double> in) {
  if (in.size() < 2) {
    throw std::invalid_argument("MovingAveragePredictor: bad state size");
  }
  const auto n = util::checked_count(
      in[1], "MovingAveragePredictor: state size", window_);
  if (in.size() != 2 + n) {
    throw std::invalid_argument("MovingAveragePredictor: bad state size");
  }
  sum_ = in[0];
  values_.assign(in.begin() + 2, in.end());
}

SlidingWindowMedianPredictor::SlidingWindowMedianPredictor(std::size_t window)
    : window_(window) {
  if (window_ == 0) {
    throw std::invalid_argument("SlidingWindowMedianPredictor: window == 0");
  }
}

void SlidingWindowMedianPredictor::observe(double value) {
  values_.push_back(value);
  if (values_.size() > window_) values_.pop_front();
}

double SlidingWindowMedianPredictor::predict() const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted(values_.begin(), values_.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2]
                    : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

void SlidingWindowMedianPredictor::save_state(std::vector<double>& out) const {
  out.push_back(static_cast<double>(values_.size()));
  out.insert(out.end(), values_.begin(), values_.end());
}

void SlidingWindowMedianPredictor::load_state(std::span<const double> in) {
  if (in.empty()) {
    throw std::invalid_argument("SlidingWindowMedianPredictor: bad state");
  }
  const auto n = util::checked_count(
      in[0], "SlidingWindowMedianPredictor: state size", window_);
  if (in.size() != 1 + n) {
    throw std::invalid_argument("SlidingWindowMedianPredictor: bad state");
  }
  values_.assign(in.begin() + 1, in.end());
}

ExponentialSmoothingPredictor::ExponentialSmoothingPredictor(double alpha)
    : alpha_(alpha) {
  if (alpha_ <= 0.0 || alpha_ > 1.0) {
    throw std::invalid_argument(
        "ExponentialSmoothingPredictor: alpha not in (0,1]");
  }
  name_ = "Exp. smoothing " +
          std::to_string(static_cast<int>(alpha_ * 100.0 + 0.5)) + "%";
}

void ExponentialSmoothingPredictor::observe(double value) {
  if (!primed_) {
    state_ = value;
    primed_ = true;
  } else {
    state_ = alpha_ * value + (1.0 - alpha_) * state_;
  }
}

void ExponentialSmoothingPredictor::save_state(
    std::vector<double>& out) const {
  out.push_back(state_);
  out.push_back(primed_ ? 1.0 : 0.0);
}

void ExponentialSmoothingPredictor::load_state(std::span<const double> in) {
  if (in.size() != 2 || (in[1] != 0.0 && in[1] != 1.0)) {
    throw std::invalid_argument("ExponentialSmoothingPredictor: bad state");
  }
  state_ = in[0];
  primed_ = in[1] != 0.0;
}

}  // namespace mmog::predict
