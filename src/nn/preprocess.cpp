#include "nn/preprocess.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace mmog::nn {

PolyfitFactor::PolyfitFactor(std::span<const double> xs, std::size_t degree)
    : points_(xs.size()), terms_(degree + 1) {
  if (xs.empty()) throw std::invalid_argument("PolyfitFactor: no points");
  if (degree >= xs.size()) {
    throw std::invalid_argument("PolyfitFactor: degree >= number of points");
  }
  const std::size_t m = terms_;
  // Normal matrix A[i][j] = sum x^(i+j); the powers below m also weight the
  // right-hand side, so they are kept.
  std::vector<double> powersums(2 * m - 1, 0.0);
  powers_.resize(points_ * m);
  for (std::size_t s = 0; s < points_; ++s) {
    double xp = 1.0;
    for (std::size_t p = 0; p < powersums.size(); ++p) {
      powersums[p] += xp;
      if (p < m) powers_[s * m + p] = xp;
      xp *= xs[s];
    }
  }
  upper_.resize(m * m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) upper_[i * m + j] = powersums[i + j];
  }
  // Gaussian elimination with partial pivoting, recording each row swap and
  // multiplier for solve() to replay.
  pivots_.resize(m);
  multipliers_.assign(m * m, 0.0);
  const auto a = [&](std::size_t r, std::size_t c) -> double& {
    return upper_[r * m + c];
  };
  for (std::size_t col = 0; col < m; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < m; ++r) {
      if (std::abs(a(r, col)) > std::abs(a(pivot, col))) pivot = r;
    }
    for (std::size_t c = 0; c < m; ++c) std::swap(a(col, c), a(pivot, c));
    pivots_[col] = pivot;
    const double diag = a(col, col);
    if (std::abs(diag) < 1e-12) {
      throw std::invalid_argument("PolyfitFactor: singular system");
    }
    for (std::size_t r = col + 1; r < m; ++r) {
      const double f = a(r, col) / diag;
      multipliers_[col * m + r] = f;
      for (std::size_t c = col; c < m; ++c) a(r, c) -= f * a(col, c);
    }
  }
}

// mmog-lint: hot-begin(predict)
void PolyfitFactor::solve(std::span<const double> ys,
                          std::span<double> coeffs) const {
  assert(ys.size() == points_ && coeffs.size() >= terms_);
  const std::size_t m = terms_;
  double* b = coeffs.data();
  // Right-hand side b[i] = sum y x^i, accumulated in sample order.
  for (std::size_t p = 0; p < m; ++p) b[p] = 0.0;
  for (std::size_t s = 0; s < points_; ++s) {
    const double* xp = &powers_[s * m];
    for (std::size_t p = 0; p < m; ++p) b[p] += ys[s] * xp[p];
  }
  // The elimination's swaps and row updates, replayed on b.
  for (std::size_t col = 0; col < m; ++col) {
    std::swap(b[col], b[pivots_[col]]);
    for (std::size_t r = col + 1; r < m; ++r) {
      b[r] -= multipliers_[col * m + r] * b[col];
    }
  }
  // Back substitution; each b[i] is last read where c_i is written.
  for (std::size_t i = m; i-- > 0;) {
    double s = b[i];
    for (std::size_t j = i + 1; j < m; ++j) s -= upper_[i * m + j] * b[j];
    b[i] = s / upper_[i * m + i];
  }
}
// mmog-lint: hot-end

std::vector<double> polyfit(std::span<const double> xs,
                            std::span<const double> ys, std::size_t degree) {
  if (xs.empty() || xs.size() != ys.size()) {
    throw std::invalid_argument("polyfit: empty or mismatched input");
  }
  if (degree >= xs.size()) {
    throw std::invalid_argument("polyfit: degree >= number of points");
  }
  const PolyfitFactor factor(xs, degree);
  std::vector<double> coeffs(factor.terms());
  factor.solve(ys, coeffs);
  return coeffs;
}

double polyval(std::span<const double> coeffs, double x) noexcept {
  double y = 0.0;
  for (std::size_t i = coeffs.size(); i-- > 0;) y = y * x + coeffs[i];
  return y;
}

PolynomialSmoother::PolynomialSmoother(std::size_t degree, std::size_t window)
    : degree_(degree), window_(window) {
  if (window_ <= degree_) {
    throw std::invalid_argument("PolynomialSmoother: window must exceed degree");
  }
  std::vector<double> xs;
  xs.reserve(window_);
  factors_.reserve(window_ - degree_);
  for (std::size_t n = 0; n < window_; ++n) {
    xs.push_back(static_cast<double>(n));
    if (n >= degree_) factors_.emplace_back(xs, degree_);
  }
}

// mmog-lint: hot-begin(predict)
double PolynomialSmoother::smooth_last(std::span<const double> recent,
                                       std::span<double> scratch) const {
  if (recent.empty()) return 0.0;
  if (recent.size() <= degree_) return recent.back();
  assert(scratch.size() >= scratch_size());
  const std::size_t n = std::min(window_, recent.size());
  const auto coeffs = scratch.first(degree_ + 1);
  factors_[n - degree_ - 1].solve(recent.last(n), coeffs);
  return polyval(coeffs, static_cast<double>(n - 1));
}
// mmog-lint: hot-end

double PolynomialSmoother::smooth_last(std::span<const double> recent) const {
  std::vector<double> scratch(scratch_size());
  return smooth_last(recent, scratch);
}

std::vector<double> PolynomialSmoother::smooth_series(
    std::span<const double> xs) const {
  std::vector<double> out(xs.size(), 0.0);
  std::vector<double> scratch(scratch_size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out[i] = smooth_last(xs.subspan(0, i + 1), scratch);
  }
  return out;
}

void MinMaxNormalizer::fit(std::span<const double> xs) noexcept {
  if (xs.empty()) {
    lo_ = 0.0;
    hi_ = 1.0;
    return;
  }
  lo_ = *std::min_element(xs.begin(), xs.end());
  hi_ = *std::max_element(xs.begin(), xs.end());
  if (hi_ <= lo_) hi_ = lo_ + 1.0;
}

void MinMaxNormalizer::update(double x) noexcept {
  lo_ = std::min(lo_, x);
  hi_ = std::max(hi_, x);
  if (hi_ <= lo_) hi_ = lo_ + 1.0;
}

double MinMaxNormalizer::transform(double x) const noexcept {
  return (x - lo_) / (hi_ - lo_);
}

double MinMaxNormalizer::inverse(double y) const noexcept {
  return lo_ + y * (hi_ - lo_);
}

}  // namespace mmog::nn
