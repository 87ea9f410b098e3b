#include "support/fft.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "support/rng.h"

namespace dhtrng::support {
namespace {

using Complex = std::complex<double>;

std::vector<Complex> naive_dft(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex sum{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = -2.0 * std::numbers::pi *
                           static_cast<double>(k * j) / static_cast<double>(n);
      sum += x[j] * Complex{std::cos(angle), std::sin(angle)};
    }
    out[k] = sum;
  }
  return out;
}

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Complex> x(n);
  for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return x;
}

TEST(Fft, MatchesNaiveDftPowerOfTwo) {
  for (std::size_t n : {2u, 8u, 64u}) {
    auto x = random_signal(n, n);
    auto expected = naive_dft(x);
    auto actual = x;
    fft(actual);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(std::abs(actual[k] - expected[k]), 0.0, 1e-9) << "n=" << n;
    }
  }
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Complex> x(12, Complex{1.0, 0.0});
  EXPECT_THROW(fft(x), std::invalid_argument);
}

TEST(Fft, InverseRoundTrip) {
  auto x = random_signal(128, 9);
  auto y = x;
  fft(y);
  ifft(y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
  }
}

TEST(Dft, BluesteinMatchesNaiveArbitraryLength) {
  for (std::size_t n : {3u, 10u, 100u, 1000u}) {
    auto x = random_signal(n, 1000 + n);
    auto expected = naive_dft(x);
    auto actual = dft(x);
    ASSERT_EQ(actual.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(std::abs(actual[k] - expected[k]), 0.0, 1e-7)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Dft, PowerOfTwoDispatch) {
  auto x = random_signal(64, 4);
  auto a = dft(x);
  auto b = x;
  fft(b);
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_NEAR(std::abs(a[k] - b[k]), 0.0, 1e-12);
  }
}

TEST(RealDftMagnitudes, PureToneConcentratesEnergy) {
  const std::size_t n = 200;
  std::vector<double> sig(n);
  for (std::size_t i = 0; i < n; ++i) {
    sig[i] = std::cos(2.0 * std::numbers::pi * 10.0 *
                      static_cast<double>(i) / static_cast<double>(n));
  }
  const auto mags = real_dft_magnitudes(sig);
  ASSERT_EQ(mags.size(), n / 2);
  // Bin 10 carries ~n/2 of amplitude; everything else near zero.
  EXPECT_NEAR(mags[10], static_cast<double>(n) / 2.0, 1e-6);
  for (std::size_t k = 0; k < mags.size(); ++k) {
    if (k != 10) {
      EXPECT_LT(mags[k], 1e-6);
    }
  }
}

TEST(RealDftMagnitudes, DcBinIsSum) {
  const std::vector<double> sig = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  const auto mags = real_dft_magnitudes(sig);
  EXPECT_NEAR(mags[0], 6.0, 1e-9);
}

TEST(RealDftMagnitudes, EmptyInput) {
  EXPECT_TRUE(real_dft_magnitudes({}).empty());
}

}  // namespace
}  // namespace dhtrng::support
