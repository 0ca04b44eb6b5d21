#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mmog::nn {

/// polyfit's normal-equation elimination for fixed abscissae, run once and
/// replayed on any ordinates. The normal matrix A[i][j] = sum x^(i+j)
/// depends only on the xs, so the factor keeps everything the elimination
/// produced from it: the power table x_s^p (p <= degree), the pivot row
/// chosen at each column, the row multipliers and the final upper triangle.
/// solve() replays the same floating-point operations in the same order on
/// the right-hand side b[i] = sum y x^i, so its coefficients are
/// bit-identical to eliminating the whole system afresh.
class PolyfitFactor {
 public:
  /// Throws std::invalid_argument on empty xs, degree >= xs.size() or a
  /// singular system.
  PolyfitFactor(std::span<const double> xs, std::size_t degree);

  std::size_t points() const noexcept { return points_; }
  /// Coefficients per fit: degree + 1.
  std::size_t terms() const noexcept { return terms_; }

  /// Writes the least-squares coefficients c0..c_degree for ordinates `ys`
  /// (points() values) into `coeffs` (terms() values; it doubles as the
  /// right-hand side). Allocation-free.
  void solve(std::span<const double> ys, std::span<double> coeffs) const;

 private:
  std::size_t points_ = 0;
  std::size_t terms_ = 0;
  std::vector<double> powers_;       ///< points x terms: x_s^p
  std::vector<std::size_t> pivots_;  ///< row swapped into place per column
  std::vector<double> multipliers_;  ///< terms x terms: [col][row] factors
  std::vector<double> upper_;        ///< terms x terms, upper triangle used
};

/// Least-squares polynomial smoother (Savitzky-Golay style): fits a
/// polynomial of `degree` to a sliding window and evaluates it at the last
/// point. The paper's neural predictor feeds its MLP through "several
/// polynomial functions which ... remove the unwanted noise" (§IV-C); this
/// is that preprocessor.
///
/// The fit over n samples always uses the abscissae 0..n-1, so construction
/// factors the elimination once per window length n (degree+1 .. window)
/// and smooth_last() only replays it: no allocation, the same bits as
/// polyfit + polyval.
class PolynomialSmoother {
 public:
  /// Window length must exceed the polynomial degree. Throws
  /// std::invalid_argument otherwise, or when the normal equations of some
  /// window length are singular.
  PolynomialSmoother(std::size_t degree, std::size_t window);

  std::size_t degree() const noexcept { return degree_; }
  std::size_t window() const noexcept { return window_; }

  /// Doubles of scratch smooth_last needs: degree + 1.
  std::size_t scratch_size() const noexcept { return degree_ + 1; }

  /// Smooths the last point of `recent` (the most recent `window` samples
  /// are used; shorter inputs are passed through unchanged). `scratch`
  /// holds at least scratch_size() doubles; nothing is allocated.
  double smooth_last(std::span<const double> recent,
                     std::span<double> scratch) const;

  /// As above, with scratch of its own.
  double smooth_last(std::span<const double> recent) const;

  /// Smooths an entire series causally (each output uses only samples up to
  /// and including its own index).
  std::vector<double> smooth_series(std::span<const double> xs) const;

 private:
  std::size_t degree_;
  std::size_t window_;
  std::vector<PolyfitFactor> factors_;  ///< [n - degree - 1] fits n samples
};

/// Min-max normalizer mapping an observed range onto [0, 1]; values outside
/// the fitted range extrapolate linearly. Inverse transform restores the
/// original scale. Used to feed bounded activations of the MLP.
class MinMaxNormalizer {
 public:
  MinMaxNormalizer() = default;

  /// Fits the range to the data; a constant (or empty) sample yields an
  /// identity-like transform centred on the constant.
  void fit(std::span<const double> xs) noexcept;

  /// Widens the fitted range to include x (for streaming use).
  void update(double x) noexcept;

  double transform(double x) const noexcept;
  double inverse(double y) const noexcept;

  double lo() const noexcept { return lo_; }
  double hi() const noexcept { return hi_; }

 private:
  double lo_ = 0.0;
  double hi_ = 1.0;
};

/// Fits a least-squares polynomial of `degree` to points (xs, ys) and
/// returns the coefficients c0..c_degree (y = sum c_k x^k). Solved by normal
/// equations with Gaussian elimination (through PolyfitFactor); throws
/// std::invalid_argument on empty input or degree >= number of points.
std::vector<double> polyfit(std::span<const double> xs,
                            std::span<const double> ys, std::size_t degree);

/// Evaluates a polynomial given by coefficients c0..cn at x (Horner).
double polyval(std::span<const double> coeffs, double x) noexcept;

}  // namespace mmog::nn
