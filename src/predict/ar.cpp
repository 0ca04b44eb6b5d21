#include "predict/ar.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/checked_count.hpp"
#include "util/stats.hpp"

namespace mmog::predict {
namespace {

/// Solves the symmetric Toeplitz system R phi = r (Levinson-Durbin).
std::vector<double> levinson_durbin(std::span<const double> autocov,
                                    std::size_t order) {
  std::vector<double> phi(order, 0.0);
  if (autocov.size() <= order || autocov[0] <= 0.0) {
    throw std::invalid_argument("levinson_durbin: insufficient autocovariance");
  }
  std::vector<double> prev(order, 0.0);
  double err = autocov[0];
  for (std::size_t k = 1; k <= order; ++k) {
    double acc = autocov[k];
    for (std::size_t j = 1; j < k; ++j) acc -= prev[j - 1] * autocov[k - j];
    const double reflection = acc / err;
    phi[k - 1] = reflection;
    for (std::size_t j = 1; j < k; ++j) {
      phi[j - 1] = prev[j - 1] - reflection * prev[k - 1 - j];
    }
    err *= (1.0 - reflection * reflection);
    if (err <= 1e-12) break;  // perfectly predictable; keep current phi
    std::copy(phi.begin(), phi.begin() + static_cast<std::ptrdiff_t>(k),
              prev.begin());
  }
  return phi;
}

}  // namespace

ArModel::ArModel(std::vector<double> coeffs, double mean)
    : coeffs_(std::move(coeffs)), mean_(mean) {}

ArModel ArModel::fit(std::size_t order,
                     std::span<const util::TimeSeries> histories) {
  if (order == 0) throw std::invalid_argument("ArModel: order == 0");
  // Pooled mean and autocovariances across the histories.
  double mean = 0.0;
  std::size_t count = 0;
  for (const auto& h : histories) {
    for (double v : h.values()) {
      mean += v;
      ++count;
    }
  }
  if (count <= order + 1) {
    throw std::invalid_argument("ArModel: not enough samples");
  }
  mean /= static_cast<double>(count);

  std::vector<double> autocov(order + 1, 0.0);
  for (const auto& h : histories) {
    const auto xs = h.values();
    for (std::size_t lag = 0; lag <= order; ++lag) {
      for (std::size_t t = lag; t < xs.size(); ++t) {
        autocov[lag] += (xs[t] - mean) * (xs[t - lag] - mean);
      }
    }
  }
  for (auto& c : autocov) c /= static_cast<double>(count);
  if (autocov[0] <= 0.0) {
    // Constant input: AR degenerates to predicting the mean.
    return ArModel(std::vector<double>(order, 0.0), mean);
  }
  return ArModel(levinson_durbin(autocov, order), mean);
}

double ArModel::predict_next(std::span<const double> recent) const {
  return predict_next(recent, {});
}

double ArModel::predict_next(std::span<const double> older,
                             std::span<const double> newer) const {
  const std::size_t n = older.size() + newer.size();
  if (n == 0) return mean_;
  // Logical oldest-first index into the split window.
  const auto at = [&](std::size_t i) {
    return i < older.size() ? older[i] : newer[i - older.size()];
  };
  double pred = mean_;
  for (std::size_t k = 0; k < coeffs_.size(); ++k) {
    const double x = k < n ? at(n - 1 - k) : at(0);
    pred += coeffs_[k] * (x - mean_);
  }
  return std::max(0.0, pred);
}

ArPredictor::ArPredictor(std::shared_ptr<const ArModel> model)
    : model_(std::move(model)),
      history_(model_ ? std::max<std::size_t>(1, model_->order()) : 1) {
  if (!model_) throw std::invalid_argument("ArPredictor: null model");
}

void ArPredictor::observe(double value) { history_.push(value); }

double ArPredictor::predict() const {
  if (history_.empty()) return 0.0;  // predictor contract: no data, no guess
  return model_->predict_next(history_.first(), history_.second());
}

std::unique_ptr<Predictor> ArPredictor::make_fresh() const {
  return std::make_unique<ArPredictor>(model_);
}

void ArPredictor::save_state(std::vector<double>& out) const {
  out.push_back(static_cast<double>(history_.size()));
  const auto older = history_.first();
  const auto newer = history_.second();
  out.insert(out.end(), older.begin(), older.end());
  out.insert(out.end(), newer.begin(), newer.end());
}

void ArPredictor::load_state(std::span<const double> in) {
  if (in.empty()) {
    throw std::invalid_argument("ArPredictor: bad state size");
  }
  const auto n = util::checked_count(in[0], "ArPredictor: state size",
                                     history_.capacity());
  if (in.size() != 1 + n) {
    throw std::invalid_argument("ArPredictor: bad state size");
  }
  history_.clear();
  for (std::size_t i = 0; i < n; ++i) history_.push(in[1 + i]);
}

}  // namespace mmog::predict
