#include "support/stats_util.h"

#include <gtest/gtest.h>

#include <vector>

#include "support/rng.h"

namespace dhtrng::support {
namespace {

TEST(StatsUtil, MeanAndVariance) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(variance(xs), 1.25);
}

TEST(StatsUtil, EmptyInputsAreZero) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(variance({}), 0.0);
}

TEST(StatsUtil, UniformityHighForUniformPValues) {
  Xoshiro256 rng(5);
  std::vector<double> ps;
  for (int i = 0; i < 1000; ++i) ps.push_back(rng.uniform());
  EXPECT_GT(p_value_uniformity(ps), 0.001);
}

TEST(StatsUtil, UniformityLowForClusteredPValues) {
  std::vector<double> ps(100, 0.5);
  EXPECT_LT(p_value_uniformity(ps), 1e-10);
}

TEST(StatsUtil, MinPassCountExactBinomial) {
  // n = 4, p = 0.99: P(X <= 2) ~ 6e-4 < 1e-3, P(X <= 3) ~ 0.039 -> the
  // threshold is 3 (i.e. 3/4 passes are acceptable, 2/4 are not).
  EXPECT_EQ(min_pass_count(4, 0.99), 3u);
  // Large sample: threshold approaches the Gaussian band.
  const std::size_t k1000 = min_pass_count(1000, 0.99);
  EXPECT_NEAR(static_cast<double>(k1000) / 1000.0, 0.98, 0.01);
  // Degenerate inputs.
  EXPECT_EQ(min_pass_count(0), 0u);
  // One sample: a single failure (probability 1%) is not rejectable at
  // 99.9% confidence, but is at 99%.
  EXPECT_EQ(min_pass_count(1, 0.99, 0.999), 0u);
  EXPECT_EQ(min_pass_count(1, 0.99, 0.98), 1u);
}

TEST(StatsUtil, MinPassCountMonotoneInConfidence) {
  EXPECT_LE(min_pass_count(100, 0.99, 0.9999),
            min_pass_count(100, 0.99, 0.99));
}

}  // namespace
}  // namespace dhtrng::support
