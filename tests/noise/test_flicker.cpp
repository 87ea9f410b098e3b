#include "noise/flicker.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/noise_models.h"

namespace dhtrng::noise {
namespace {

TEST(FlickerNoise, Deterministic) {
  FlickerNoise a(1.0, 8, 42), b(1.0, 8, 42);
  for (int i = 0; i < 200; ++i) EXPECT_DOUBLE_EQ(a.next(), b.next());
}

TEST(FlickerNoise, MarginalSigmaMatchesFormula) {
  EXPECT_DOUBLE_EQ(flicker_marginal_sigma(2.0, 9), 2.0 * std::sqrt(9.0));
}

TEST(FlickerNoise, EmpiricalSigmaNearMarginal) {
  FlickerNoise f(1.0, 10, 7);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = f.next();
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double sigma = std::sqrt(sum2 / n - mean * mean);
  EXPECT_NEAR(sigma / flicker_marginal_sigma(1.0, f.octaves()), 1.0, 0.15);
}

TEST(FlickerNoise, IsLowFrequencyHeavy) {
  // Pink noise has much higher lag-1 autocorrelation than white noise.
  FlickerNoise f(1.0, 12, 3);
  const int n = 50000;
  std::vector<double> xs(n);
  for (auto& x : xs) x = f.next();
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= n;
  double c0 = 0.0, c1 = 0.0;
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
    c0 += (xs[i] - mean) * (xs[i] - mean);
    c1 += (xs[i] - mean) * (xs[i + 1] - mean);
  }
  EXPECT_GT(c1 / c0, 0.7);
}

TEST(FlickerNoise, OctaveValidation) {
  EXPECT_THROW(FlickerNoise(1.0, 0, 1), std::invalid_argument);
  EXPECT_THROW(FlickerNoise(1.0, 63, 1), std::invalid_argument);
  EXPECT_NO_THROW(FlickerNoise(1.0, 1, 1));
}

TEST(FlickerNoise, FillMatchesSequentialNext) {
  // fill() batches the pink-noise lattice for the simulator's hot path; it
  // must replay the row-refresh schedule and the summation order exactly,
  // for any mix of block sizes (including sizes that straddle the
  // power-of-two refresh boundaries of the high octaves).
  FlickerNoise a(0.7, 12, 99), b(0.7, 12, 99);
  std::vector<double> block(3 + 64 + 1 + 200 + 13);
  std::size_t at = 0;
  for (std::size_t n : {std::size_t{3}, std::size_t{64}, std::size_t{1},
                        std::size_t{200}, std::size_t{13}}) {
    a.fill(block.data() + at, n);
    at += n;
  }
  for (std::size_t i = 0; i < block.size(); ++i) {
    ASSERT_EQ(block[i], b.next()) << "sample " << i;
  }
  EXPECT_EQ(a.next(), b.next());  // streams still aligned afterwards
}

}  // namespace
}  // namespace dhtrng::noise
