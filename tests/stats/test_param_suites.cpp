// Parameterized property sweeps over the statistical suites.
#include <gtest/gtest.h>

#include <cmath>

#include "stats/sp800_22.h"
#include "stats/sp800_90b.h"
#include "support/rng.h"

namespace dhtrng::stats {
namespace {

using support::BitStream;

BitStream bernoulli_bits(std::size_t n, double p, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  BitStream bs;
  bs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) bs.push_back(rng.bernoulli(p));
  return bs;
}

// --- MCV tracks the true bias across a probability sweep --------------------

class McvBiasSweep : public ::testing::TestWithParam<double> {};

TEST_P(McvBiasSweep, EstimateMatchesTheory) {
  const double p = GetParam();
  const auto bits = bernoulli_bits(400000, p, static_cast<std::uint64_t>(p * 1000));
  const double expected = std::min(-std::log2(std::max(p, 1.0 - p)), 1.0);
  EXPECT_NEAR(sp800_90b::mcv(bits).h_min, expected, 0.02) << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(Probabilities, McvBiasSweep,
                         ::testing::Values(0.5, 0.55, 0.6, 0.7, 0.8, 0.9),
                         [](const auto& param_info) {
                           return std::string("p").append(std::to_string(
                               static_cast<int>(param_info.param * 100)));
                         });

// --- Markov tracks transition stickiness ------------------------------------

class MarkovStickinessSweep : public ::testing::TestWithParam<double> {};

TEST_P(MarkovStickinessSweep, EstimateMatchesChainEntropy) {
  const double p_stay = GetParam();
  support::Xoshiro256 rng(static_cast<std::uint64_t>(p_stay * 10000));
  BitStream bs;
  bool cur = false;
  for (int i = 0; i < 400000; ++i) {
    bs.push_back(cur);
    cur = rng.bernoulli(p_stay) ? cur : !cur;
  }
  const double expected = std::min(-std::log2(std::max(p_stay, 1.0 - p_stay)), 1.0);
  EXPECT_NEAR(sp800_90b::markov(bs).h_min, expected, 0.03)
      << "p_stay=" << p_stay;
}

INSTANTIATE_TEST_SUITE_P(Stickiness, MarkovStickinessSweep,
                         ::testing::Values(0.5, 0.6, 0.7, 0.8, 0.9),
                         [](const auto& param_info) {
                           return std::string("stay").append(std::to_string(
                               static_cast<int>(param_info.param * 100)));
                         });

// --- every SP 800-22 test yields valid p-values on ideal data ---------------

class Sp80022TestIndex : public ::testing::TestWithParam<std::size_t> {
 protected:
  static const BitStream& bits() {
    static const BitStream b = bernoulli_bits(420000, 0.5, 999);
    return b;
  }
};

TEST_P(Sp80022TestIndex, PValuesInRangeAndPassesIdeal) {
  const auto results = sp800_22::run_all(bits());
  ASSERT_LT(GetParam(), results.size());
  const auto& r = results[GetParam()];
  for (double p : r.p_values) {
    EXPECT_GE(p, 0.0) << r.name;
    EXPECT_LE(p, 1.0) << r.name;
  }
  EXPECT_TRUE(r.pass()) << r.name << " p=" << r.p_value();
}

INSTANTIATE_TEST_SUITE_P(AllFifteen, Sp80022TestIndex,
                         ::testing::Range<std::size_t>(0, 15));

// --- block-frequency block-length sweep --------------------------------------

class BlockLenSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlockLenSweep, BlockFrequencyStable) {
  const auto bits = bernoulli_bits(200000, 0.5, 321);
  const auto r = sp800_22::block_frequency(bits, GetParam());
  EXPECT_GT(r.p_value(), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Blocks, BlockLenSweep,
                         ::testing::Values(32u, 64u, 128u, 256u, 1024u));

// --- linear complexity block-length sweep ------------------------------------

class LcBlockSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LcBlockSweep, IdealPassesAtEveryBlockLength) {
  const auto bits = bernoulli_bits(500000, 0.5, 654);
  const auto r = sp800_22::linear_complexity(bits, GetParam());
  EXPECT_TRUE(r.pass()) << "M=" << GetParam() << " p=" << r.p_value();
}

INSTANTIATE_TEST_SUITE_P(BlockLengths, LcBlockSweep,
                         ::testing::Values(500u, 750u, 1000u));

}  // namespace
}  // namespace dhtrng::stats
