// Deeper SP 800-22 coverage: size-dependent parameter branches, template
// machinery, and distribution checks the main property file doesn't hit.
#include <gtest/gtest.h>

#include <cmath>

#include "stats/sp800_22.h"
#include "support/rng.h"

namespace dhtrng::stats::sp800_22 {
namespace {

using support::BitStream;

BitStream ideal_bits(std::size_t n, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  BitStream bs;
  bs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) bs.push_back(rng.bernoulli(0.5));
  return bs;
}

TEST(LongestRunBranches, SmallMediumLargeAllPass) {
  // n >= 128 -> M=8 branch; n >= 6272 -> M=128; n >= 750000 -> M=10000.
  for (std::size_t n : {1000u, 20000u, 800000u}) {
    const auto r = longest_run(ideal_bits(n, n));
    EXPECT_TRUE(r.pass()) << "n=" << n << " p=" << r.p_value();
  }
}

TEST(LongestRunBranches, MediumBranchCatchesDefect) {
  // 20-bit runs inserted into every 128-bit block, tested at medium size.
  support::Xoshiro256 rng(2);
  BitStream bs;
  for (int i = 0; i < 128 * 80; ++i) {
    bs.push_back((i % 128) < 18 ? true : rng.bernoulli(0.5));
  }
  EXPECT_LT(longest_run(bs).p_value(), 0.01);
}

TEST(NonOverlappingTemplate, PlantedTemplateIsDetected) {
  // Plant the template 000000001 far above its expected rate in a
  // balanced carrier.
  support::Xoshiro256 rng(3);
  BitStream bs;
  for (int block = 0; block < 8000; ++block) {
    for (int i = 0; i < 8; ++i) bs.push_back(false);
    bs.push_back(true);
    for (int i = 0; i < 116; ++i) bs.push_back(rng.bernoulli(0.5));
  }
  const auto r = non_overlapping_template(bs);
  EXPECT_FALSE(r.pass());
}

TEST(NonOverlappingTemplate, SubtestCountMatchesTemplateCount) {
  const auto r = non_overlapping_template(ideal_bits(200000, 4));
  EXPECT_EQ(r.p_values.size(), aperiodic_templates_cached(9).size());
}

TEST(OverlappingTemplate, AllOnesStreamFails) {
  EXPECT_LT(overlapping_template(BitStream(200000, true)).p_value(), 1e-10);
}

TEST(OverlappingTemplate, NeedsEnoughBits) {
  EXPECT_FALSE(overlapping_template(ideal_bits(500, 5)).applicable);
}

TEST(Dft, SmallSequenceAgainstHandComputation) {
  // n = 10 sequence: verify the statistic pipeline end-to-end on a case
  // small enough to inspect (threshold sqrt(ln(20)*10) ~ 5.47).
  const auto r = dft(BitStream::from_string("1001010011"));
  ASSERT_EQ(r.p_values.size(), 1u);
  EXPECT_GE(r.p_values[0], 0.0);
  EXPECT_LE(r.p_values[0], 1.0);
}

TEST(Universal, SelectsLForSize) {
  // Just above the L=6 threshold works; far above picks larger L and still
  // passes on ideal data.
  EXPECT_TRUE(universal(ideal_bits(400000, 6)).applicable);
  EXPECT_TRUE(universal(ideal_bits(1000000, 7)).pass());
}

TEST(Serial, DeltaStatisticsNonNegative) {
  // psi2 differences are chi-square distributed -> non-negative, so both
  // p-values exist; check across several m.
  const auto bits = ideal_bits(100000, 8);
  for (std::size_t m : {3u, 5u, 8u, 16u}) {
    const auto r = serial(bits, m);
    ASSERT_EQ(r.p_values.size(), 2u) << m;
    EXPECT_GT(r.p_values[0], 0.0) << m;
    EXPECT_GT(r.p_values[1], 0.0) << m;
  }
}

TEST(RandomExcursions, StatesCoverMinusFourToFour) {
  const auto r = random_excursions(ideal_bits(1000000, 9));
  if (r.applicable) {
    EXPECT_EQ(r.p_values.size(), 8u);
  }
}

TEST(RandomExcursionsVariant, EighteenStates) {
  const auto r = random_excursions_variant(ideal_bits(1000000, 10));
  if (r.applicable) {
    EXPECT_EQ(r.p_values.size(), 18u);
  }
}

TEST(SuiteRunner, EmptyInputYieldsNoRows) {
  EXPECT_TRUE(run_suite({}).empty());
}

TEST(PValueDistribution, UniformUnderNull) {
  // The frequency test's p-values over many ideal sequences must be
  // roughly uniform: the foundation of the Table 3 uniformity column.
  std::vector<double> ps;
  for (std::uint64_t s = 0; s < 60; ++s) {
    ps.push_back(frequency(ideal_bits(20000, 100 + s)).p_value());
  }
  std::size_t low = 0, high = 0;
  for (double p : ps) {
    if (p < 0.5) ++low;
    else ++high;
  }
  EXPECT_GT(low, 15u);
  EXPECT_GT(high, 15u);
}

}  // namespace
}  // namespace dhtrng::stats::sp800_22
