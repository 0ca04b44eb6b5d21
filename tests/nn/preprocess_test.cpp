#include "nn/preprocess.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace mmog::nn {
namespace {

// The elimination PolyfitFactor caches, as polyfit ran it before the factor
// existed: every normal-equation system built and eliminated from scratch.
// Kept verbatim as the oracle the factored path must match bit for bit.
namespace oracle {

std::vector<double> polyfit(std::span<const double> xs,
                            std::span<const double> ys, std::size_t degree) {
  if (xs.empty() || xs.size() != ys.size()) {
    throw std::invalid_argument("polyfit: empty or mismatched input");
  }
  if (degree >= xs.size()) {
    throw std::invalid_argument("polyfit: degree >= number of points");
  }
  const std::size_t m = degree + 1;
  // Normal equations A c = b with A[i][j] = sum x^(i+j), b[i] = sum y x^i.
  std::vector<double> powersums(2 * m - 1, 0.0);
  std::vector<double> b(m, 0.0);
  for (std::size_t s = 0; s < xs.size(); ++s) {
    double xp = 1.0;
    for (std::size_t p = 0; p < powersums.size(); ++p) {
      powersums[p] += xp;
      if (p < m) b[p] += ys[s] * xp;
      xp *= xs[s];
    }
  }
  std::vector<std::vector<double>> a(m, std::vector<double>(m, 0.0));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) a[i][j] = powersums[i + j];
  }
  // Gaussian elimination with partial pivoting.
  for (std::size_t col = 0; col < m; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < m; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    const double diag = a[col][col];
    if (std::abs(diag) < 1e-12) {
      throw std::invalid_argument("polyfit: singular system");
    }
    for (std::size_t r = col + 1; r < m; ++r) {
      const double f = a[r][col] / diag;
      for (std::size_t c = col; c < m; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> coeffs(m, 0.0);
  for (std::size_t i = m; i-- > 0;) {
    double s = b[i];
    for (std::size_t j = i + 1; j < m; ++j) s -= a[i][j] * coeffs[j];
    coeffs[i] = s / a[i][i];
  }
  return coeffs;
}

double polyval(std::span<const double> coeffs, double x) noexcept {
  double y = 0.0;
  for (std::size_t i = coeffs.size(); i-- > 0;) y = y * x + coeffs[i];
  return y;
}

/// PolynomialSmoother::smooth_last as it was built on the two above.
double smooth_last(std::size_t degree, std::size_t window,
                   std::span<const double> recent) {
  if (recent.empty()) return 0.0;
  if (recent.size() <= degree) return recent.back();
  const std::size_t n = std::min(window, recent.size());
  const auto tail = recent.subspan(recent.size() - n, n);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = static_cast<double>(i);
  const auto coeffs = polyfit(xs, tail, degree);
  return polyval(coeffs, static_cast<double>(n - 1));
}

}  // namespace oracle

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// `n` samples of an entity-count-like signal: a level, a trend and noise
/// whose scale is itself random, so windows range from nearly flat to wild.
std::vector<double> random_window(util::Rng& rng, std::size_t n) {
  const double level = rng.uniform(0.0, 2000.0);
  const double slope = rng.uniform(-50.0, 50.0);
  const double noise = rng.uniform(0.0, 1.0) < 0.2 ? 0.0 : rng.uniform(0.0, 300.0);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = level + slope * static_cast<double>(i) + rng.normal(0.0, noise);
  }
  return xs;
}

TEST(PolyfitFactorTest, SmootherIsBitIdenticalToEliminatingAfresh) {
  // Every window length the factored smoother serves, for degrees 1-4 and
  // several window sizes: the cached elimination replayed on the
  // right-hand side gives the oracle's bits, through both overloads.
  util::Rng rng(2008);
  for (std::size_t degree = 1; degree <= 4; ++degree) {
    for (const std::size_t window : {degree + 1, std::size_t{5},
                                     std::size_t{9}, std::size_t{16}}) {
      if (window <= degree) continue;
      const PolynomialSmoother smoother(degree, window);
      std::vector<double> scratch(smoother.scratch_size());
      // Lengths up to window + 3 also cover inputs longer than the window.
      for (std::size_t n = degree + 1; n <= window + 3; ++n) {
        for (int trial = 0; trial < 40; ++trial) {
          const auto xs = random_window(rng, n);
          const double want = oracle::smooth_last(degree, window, xs);
          ASSERT_EQ(bits(smoother.smooth_last(xs, scratch)), bits(want))
              << "degree=" << degree << " window=" << window << " n=" << n;
          ASSERT_EQ(bits(smoother.smooth_last(xs)), bits(want))
              << "degree=" << degree << " window=" << window << " n=" << n;
        }
      }
    }
  }
}

TEST(PolyfitFactorTest, PolyfitIsBitIdenticalForArbitraryAbscissae) {
  // polyfit solves through the same factor for any xs, not only 0..n-1.
  util::Rng rng(99);
  for (std::size_t degree = 1; degree <= 4; ++degree) {
    for (std::size_t n = degree + 1; n <= 12; ++n) {
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<double> xs(n);
        for (auto& x : xs) x = rng.uniform(-3.0, 3.0);
        const auto ys = random_window(rng, n);
        const auto want = oracle::polyfit(xs, ys, degree);
        const auto got = polyfit(xs, ys, degree);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t k = 0; k < want.size(); ++k) {
          ASSERT_EQ(bits(got[k]), bits(want[k]))
              << "degree=" << degree << " n=" << n << " k=" << k;
        }
        const double x = rng.uniform(-3.0, 3.0);
        ASSERT_EQ(bits(polyval(got, x)), bits(oracle::polyval(want, x)));
      }
    }
  }
}

TEST(PolyfitFactorTest, RejectsWhatPolyfitRejects) {
  const std::vector<double> two = {1, 2};
  EXPECT_THROW(PolyfitFactor({}, 1), std::invalid_argument);
  EXPECT_THROW(PolyfitFactor(two, 2), std::invalid_argument);
  // Repeated abscissae make the normal matrix singular.
  const std::vector<double> same = {3, 3, 3};
  EXPECT_THROW(PolyfitFactor(same, 1), std::invalid_argument);
  EXPECT_THROW(oracle::polyfit(same, same, 1), std::invalid_argument);
  const PolyfitFactor factor(two, 1);
  EXPECT_EQ(factor.points(), 2u);
  EXPECT_EQ(factor.terms(), 2u);
}

TEST(PolyfitTest, RecoversLinearCoefficients) {
  const std::vector<double> xs = {0, 1, 2, 3, 4};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(2.0 * x + 1.0);
  const auto c = polyfit(xs, ys, 1);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_NEAR(c[0], 1.0, 1e-9);
  EXPECT_NEAR(c[1], 2.0, 1e-9);
}

TEST(PolyfitTest, RecoversQuadraticCoefficients) {
  const std::vector<double> xs = {-2, -1, 0, 1, 2};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(3.0 * x * x - x + 0.5);
  const auto c = polyfit(xs, ys, 2);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_NEAR(c[0], 0.5, 1e-9);
  EXPECT_NEAR(c[1], -1.0, 1e-9);
  EXPECT_NEAR(c[2], 3.0, 1e-9);
}

TEST(PolyfitTest, ThrowsOnBadInput) {
  EXPECT_THROW(polyfit({}, {}, 1), std::invalid_argument);
  const std::vector<double> xs = {1, 2};
  const std::vector<double> ys = {1};
  EXPECT_THROW(polyfit(xs, ys, 1), std::invalid_argument);
  const std::vector<double> same = {1, 2};
  EXPECT_THROW(polyfit(same, same, 2), std::invalid_argument);
}

TEST(PolyvalTest, EvaluatesHornerCorrectly) {
  const std::vector<double> c = {1.0, 2.0, 3.0};  // 1 + 2x + 3x^2
  EXPECT_DOUBLE_EQ(polyval(c, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(polyval(c, 1.0), 6.0);
  EXPECT_DOUBLE_EQ(polyval(c, 2.0), 17.0);
  EXPECT_DOUBLE_EQ(polyval({}, 5.0), 0.0);
}

TEST(SmootherTest, ConstructorValidatesWindow) {
  EXPECT_THROW(PolynomialSmoother(2, 2), std::invalid_argument);
  EXPECT_NO_THROW(PolynomialSmoother(2, 3));
}

TEST(SmootherTest, PassesShortInputThrough) {
  PolynomialSmoother s(2, 5);
  const std::vector<double> xs = {4.0};
  EXPECT_DOUBLE_EQ(s.smooth_last(xs), 4.0);
  EXPECT_DOUBLE_EQ(s.smooth_last({}), 0.0);
}

TEST(SmootherTest, PreservesPolynomialSignalsExactly) {
  // A degree-2 smoother must reproduce a quadratic series exactly.
  PolynomialSmoother s(2, 5);
  std::vector<double> xs;
  for (int t = 0; t < 20; ++t) xs.push_back(0.5 * t * t - t + 3.0);
  EXPECT_NEAR(s.smooth_last(xs), xs.back(), 1e-6);
}

TEST(SmootherTest, ReducesNoiseVariance) {
  util::Rng rng(1);
  PolynomialSmoother s(1, 9);
  std::vector<double> noisy;
  for (int t = 0; t < 300; ++t) noisy.push_back(100.0 + rng.normal(0.0, 10.0));
  const auto smoothed = s.smooth_series(noisy);
  double raw_dev = 0.0, smooth_dev = 0.0;
  for (std::size_t t = 20; t < noisy.size(); ++t) {
    raw_dev += std::abs(noisy[t] - 100.0);
    smooth_dev += std::abs(smoothed[t] - 100.0);
  }
  EXPECT_LT(smooth_dev, raw_dev * 0.7);
}

TEST(SmootherTest, SmoothSeriesIsCausal) {
  PolynomialSmoother s(1, 4);
  std::vector<double> xs = {1, 2, 3, 4, 5, 6};
  const auto a = s.smooth_series(xs);
  // Appending a sample must not change earlier outputs.
  xs.push_back(100.0);
  const auto b = s.smooth_series(xs);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "index " << i;
  }
}

TEST(NormalizerTest, MapsRangeToUnitInterval) {
  MinMaxNormalizer n;
  const std::vector<double> xs = {10, 20, 30};
  n.fit(xs);
  EXPECT_DOUBLE_EQ(n.transform(10.0), 0.0);
  EXPECT_DOUBLE_EQ(n.transform(30.0), 1.0);
  EXPECT_DOUBLE_EQ(n.transform(20.0), 0.5);
}

TEST(NormalizerTest, InverseRoundTrips) {
  MinMaxNormalizer n;
  const std::vector<double> xs = {-5, 0, 15};
  n.fit(xs);
  for (double x : {-5.0, 0.0, 7.5, 15.0, 20.0}) {
    EXPECT_NEAR(n.inverse(n.transform(x)), x, 1e-12);
  }
}

TEST(NormalizerTest, ConstantSampleDoesNotDivideByZero) {
  MinMaxNormalizer n;
  const std::vector<double> xs = {4, 4, 4};
  n.fit(xs);
  EXPECT_TRUE(std::isfinite(n.transform(4.0)));
  EXPECT_DOUBLE_EQ(n.transform(4.0), 0.0);
}

TEST(NormalizerTest, EmptyFitYieldsDefaultRange) {
  MinMaxNormalizer n;
  n.fit({});
  EXPECT_DOUBLE_EQ(n.lo(), 0.0);
  EXPECT_DOUBLE_EQ(n.hi(), 1.0);
}

TEST(NormalizerTest, UpdateWidensRange) {
  MinMaxNormalizer n;
  const std::vector<double> xs = {0, 10};
  n.fit(xs);
  n.update(20.0);
  EXPECT_DOUBLE_EQ(n.hi(), 20.0);
  EXPECT_DOUBLE_EQ(n.transform(20.0), 1.0);
  n.update(-10.0);
  EXPECT_DOUBLE_EQ(n.lo(), -10.0);
}

}  // namespace
}  // namespace mmog::nn
