#include "support/theory.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dhtrng::core::theory {
namespace {

TEST(Eq3, FairInputGivesFairOutput) {
  // If either input is fair, the XOR is fair — the holding-region argument
  // of Section 3.1 (mu2 ~ 1/2 => E[Out] ~ 1/2).
  EXPECT_DOUBLE_EQ(xor_expected_value(0.5, 0.9), 0.5);
  EXPECT_DOUBLE_EQ(xor_expected_value(0.123, 0.5), 0.5);
}

TEST(Eq3, MatchesDirectComputation) {
  // E[a xor b] = mu1(1-mu2) + mu2(1-mu1) for independent bits.
  for (double mu1 : {0.1, 0.4, 0.7}) {
    for (double mu2 : {0.2, 0.5, 0.9}) {
      const double direct = mu1 * (1 - mu2) + mu2 * (1 - mu1);
      EXPECT_NEAR(xor_expected_value(mu1, mu2), direct, 1e-12);
    }
  }
}

TEST(Eq4, ConvergesToHalfWithXorCount) {
  // The paper's claim: |E - 1/2| shrinks geometrically in n.
  double prev = std::abs(xor_expected_value_n(0.6, 0.6, 2) - 0.5);
  for (std::size_t n = 4; n <= 16; n += 2) {
    const double cur = std::abs(xor_expected_value_n(0.6, 0.6, n) - 0.5);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
  EXPECT_LT(prev, 1e-5);
}

TEST(Eq4, ReducesToPilingUpForNEquals2) {
  // n = 2 gives E = 1/2 (1 + (1-2mu1)(1-2mu2)); check against the n-ary
  // piling-up with the complement convention.
  const double e = xor_expected_value_n(0.3, 0.8, 2);
  const double expected = 0.5 * (1.0 + (1 - 0.6) * (1 - 1.6));
  EXPECT_NEAR(e, expected, 1e-12);
}

TEST(PilingUp, VectorForm) {
  // XOR of three bits with expectations {0.5, x, y} is fair.
  EXPECT_NEAR(xor_expected_value({0.5, 0.7, 0.9}), 0.5, 1e-12);
  // XOR of {1, 1} is 0; XOR of {1, 0} is 1.
  EXPECT_NEAR(xor_expected_value({1.0, 1.0}), 0.0, 1e-12);
  EXPECT_NEAR(xor_expected_value({1.0, 0.0}), 1.0, 1e-12);
}

TEST(Eq5, CoverageIncreasesWithUnits) {
  CoverageTerm t;
  t.jitter_probability = 0.3;
  t.jitter_width_ps = 20.0;
  t.ro_period_ps = 2000.0;
  t.hold_capture_prob = 0.4;
  t.edge_width_ps = 30.0;
  t.osc_frequency_ghz = 0.5;
  double prev = 0.0;
  for (std::size_t n = 1; n <= 6; ++n) {
    const double cov = randomness_coverage(std::vector<CoverageTerm>(n, t));
    EXPECT_GT(cov, prev);
    prev = cov;
  }
  EXPECT_GT(prev, 0.9);  // multi-XOR coverage approaches 1 (paper Sec. 3.1)
}

TEST(Eq5, ZeroMechanismsGiveZeroCoverage) {
  CoverageTerm t{};
  t.ro_period_ps = 1000.0;
  EXPECT_DOUBLE_EQ(randomness_coverage({t}), 0.0);
}

TEST(Eq5, HoldCaptureAloneContributes) {
  CoverageTerm t{};
  t.ro_period_ps = 1000.0;
  t.hold_capture_prob = 0.4;
  EXPECT_NEAR(randomness_coverage({t}), 0.4, 1e-12);
}

TEST(MinEntropy, BernoulliExtremes) {
  EXPECT_NEAR(bernoulli_min_entropy(0.5), 1.0, 1e-12);
  EXPECT_NEAR(bernoulli_min_entropy(1.0), 0.0, 1e-9);
  EXPECT_NEAR(bernoulli_min_entropy(0.0), 0.0, 1e-9);
  // Symmetry.
  EXPECT_NEAR(bernoulli_min_entropy(0.3), bernoulli_min_entropy(0.7), 1e-12);
}

TEST(MinEntropy, MatchesLogFormula) {
  EXPECT_NEAR(bernoulli_min_entropy(0.55), -std::log2(0.55), 1e-12);
}

}  // namespace
}  // namespace dhtrng::core::theory
