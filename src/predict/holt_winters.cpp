#include "predict/holt_winters.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/checked_count.hpp"

namespace mmog::predict {

HoltPredictor::HoltPredictor(double alpha, double beta)
    : alpha_(alpha), beta_(beta) {
  if (alpha <= 0.0 || alpha > 1.0 || beta <= 0.0 || beta > 1.0) {
    throw std::invalid_argument("HoltPredictor: parameters not in (0,1]");
  }
}

void HoltPredictor::observe(double value) {
  if (observed_ == 0) {
    level_ = value;
    trend_ = 0.0;
  } else {
    const double prev_level = level_;
    level_ = alpha_ * value + (1.0 - alpha_) * (level_ + trend_);
    trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
  }
  ++observed_;
}

double HoltPredictor::predict() const {
  if (observed_ == 0) return 0.0;
  return std::max(0.0, level_ + trend_);
}

std::unique_ptr<Predictor> HoltPredictor::make_fresh() const {
  return std::make_unique<HoltPredictor>(alpha_, beta_);
}

void HoltPredictor::save_state(std::vector<double>& out) const {
  out.push_back(level_);
  out.push_back(trend_);
  out.push_back(static_cast<double>(observed_));
}

void HoltPredictor::load_state(std::span<const double> in) {
  if (in.size() != 3) {
    throw std::invalid_argument("HoltPredictor: bad state size");
  }
  observed_ = util::checked_count(in[2], "HoltPredictor: observed");
  level_ = in[0];
  trend_ = in[1];
}

HoltWintersPredictor::HoltWintersPredictor(std::size_t season_length,
                                           double alpha, double beta,
                                           double gamma)
    : season_(season_length), alpha_(alpha), beta_(beta), gamma_(gamma) {
  if (season_ == 0) {
    throw std::invalid_argument("HoltWintersPredictor: season_length == 0");
  }
  if (alpha <= 0.0 || alpha > 1.0 || beta <= 0.0 || beta > 1.0 ||
      gamma <= 0.0 || gamma > 1.0) {
    throw std::invalid_argument(
        "HoltWintersPredictor: parameters not in (0,1]");
  }
}

void HoltWintersPredictor::observe(double value) {
  if (!seasonal_ready_) {
    first_season_.push_back(value);
    // Run Holt's update so predictions are sensible during the first day.
    if (observed_ == 0) {
      level_ = value;
      trend_ = 0.0;
    } else {
      const double prev_level = level_;
      level_ = alpha_ * value + (1.0 - alpha_) * (level_ + trend_);
      trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
    }
    ++observed_;
    if (first_season_.size() == season_) {
      // Initialize: level = season mean, additive seasonal offsets.
      const double mean =
          std::accumulate(first_season_.begin(), first_season_.end(), 0.0) /
          static_cast<double>(season_);
      seasonal_.assign(season_, 0.0);
      for (std::size_t i = 0; i < season_; ++i) {
        seasonal_[i] = first_season_[i] - mean;
      }
      level_ = mean;
      seasonal_ready_ = true;
      first_season_.clear();
    }
    return;
  }
  const std::size_t s = observed_ % season_;
  const double prev_level = level_;
  level_ = alpha_ * (value - seasonal_[s]) +
           (1.0 - alpha_) * (level_ + trend_);
  trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
  seasonal_[s] = gamma_ * (value - level_) + (1.0 - gamma_) * seasonal_[s];
  ++observed_;
}

double HoltWintersPredictor::predict() const {
  if (observed_ == 0) return 0.0;
  double forecast = level_ + trend_;
  if (seasonal_ready_) {
    forecast += seasonal_[observed_ % season_];
  }
  return std::max(0.0, forecast);
}

std::unique_ptr<Predictor> HoltWintersPredictor::make_fresh() const {
  return std::make_unique<HoltWintersPredictor>(season_, alpha_, beta_,
                                                gamma_);
}

void HoltWintersPredictor::save_state(std::vector<double>& out) const {
  out.push_back(level_);
  out.push_back(trend_);
  out.push_back(static_cast<double>(observed_));
  out.push_back(seasonal_ready_ ? 1.0 : 0.0);
  out.push_back(static_cast<double>(first_season_.size()));
  out.insert(out.end(), first_season_.begin(), first_season_.end());
  out.push_back(static_cast<double>(seasonal_.size()));
  out.insert(out.end(), seasonal_.begin(), seasonal_.end());
}

void HoltWintersPredictor::load_state(std::span<const double> in) {
  if (in.size() < 5) {
    throw std::invalid_argument("HoltWintersPredictor: bad state size");
  }
  const bool ready = in[3] != 0.0;
  const auto observed =
      util::checked_count(in[2], "HoltWintersPredictor: observed");
  const auto fs_n = util::checked_count(
      in[4], "HoltWintersPredictor: first-season size", season_ - 1);
  if (in.size() < 6 + fs_n) {
    throw std::invalid_argument("HoltWintersPredictor: bad state size");
  }
  const auto s_n = util::checked_count(
      in[5 + fs_n], "HoltWintersPredictor: season size", season_);
  if ((ready && s_n != season_) || (!ready && s_n != 0) ||
      in.size() != 6 + fs_n + s_n) {
    throw std::invalid_argument("HoltWintersPredictor: bad state size");
  }
  level_ = in[0];
  trend_ = in[1];
  observed_ = observed;
  seasonal_ready_ = ready;
  first_season_.assign(in.begin() + 5, in.begin() + 5 + fs_n);
  seasonal_.assign(in.begin() + 6 + fs_n, in.end());
}

void DriftPredictor::observe(double value) {
  if (observed_ == 0) first_ = value;
  last_ = value;
  ++observed_;
}

double DriftPredictor::predict() const {
  if (observed_ == 0) return 0.0;
  if (observed_ == 1) return last_;
  const double slope =
      (last_ - first_) / static_cast<double>(observed_ - 1);
  return std::max(0.0, last_ + slope);
}

void DriftPredictor::save_state(std::vector<double>& out) const {
  out.push_back(first_);
  out.push_back(last_);
  out.push_back(static_cast<double>(observed_));
}

void DriftPredictor::load_state(std::span<const double> in) {
  if (in.size() != 3) {
    throw std::invalid_argument("DriftPredictor: bad state size");
  }
  observed_ = util::checked_count(in[2], "DriftPredictor: observed");
  first_ = in[0];
  last_ = in[1];
}

}  // namespace mmog::predict
