// Property tests of the SP 800-90B estimators: each estimator must catch
// the class of defect it exists to detect and must assess near-ideal data
// near 1 bit/bit.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "stats/kernels.h"
#include "stats/sp800_90b.h"
#include "support/rng.h"
#include "support/stats_oracle.h"

namespace dhtrng::stats::sp800_90b {
namespace {

using support::BitStream;

BitStream ideal_bits(std::size_t n, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  BitStream bs;
  bs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) bs.push_back(rng.bernoulli(0.5));
  return bs;
}

BitStream biased_bits(std::size_t n, double p, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  BitStream bs;
  bs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) bs.push_back(rng.bernoulli(p));
  return bs;
}

BitStream markov_bits(std::size_t n, double p_stay, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  BitStream bs;
  bool cur = false;
  for (std::size_t i = 0; i < n; ++i) {
    bs.push_back(cur);
    cur = rng.bernoulli(p_stay) ? cur : !cur;
  }
  return bs;
}

TEST(Mcv, IdealDataNearOne) {
  EXPECT_GT(mcv(ideal_bits(500000, 1)).h_min, 0.98);
}

TEST(Mcv, DetectsBias) {
  // p = 0.75 -> h = -log2(0.75) ~ 0.415.
  const auto r = mcv(biased_bits(500000, 0.75, 2));
  EXPECT_NEAR(r.h_min, 0.415, 0.01);
}

TEST(Mcv, ConstantDataNearZero) {
  EXPECT_LT(mcv(BitStream(10000, true)).h_min, 0.01);
}

// p_max = 1 is zero entropy, and it must be +0: -log2(1) is -0, which a
// report or a CERT line renders as "-0".
TEST(Mcv, OneBitIsPositiveZeroEntropy) {
  const EstimatorResult r = mcv(BitStream(1, true));
  EXPECT_EQ(r.h_min, 0.0);
  EXPECT_FALSE(std::signbit(r.h_min));
}

TEST(Collision, IdealDataConservativeButHigh) {
  // The collision estimator is known to be conservative (~0.91 on ideal
  // binary data at 1 Mbit); the paper's Table 4 shows 0.92-0.94.
  const double h = collision(ideal_bits(1000000, 3)).h_min;
  EXPECT_GT(h, 0.85);
  EXPECT_LE(h, 1.0);
}

TEST(Collision, DetectsBias) {
  EXPECT_LT(collision(biased_bits(500000, 0.8, 4)).h_min, 0.5);
}

TEST(Markov, IdealDataNearOne) {
  EXPECT_GT(markov(ideal_bits(500000, 5)).h_min, 0.99);
}

TEST(Markov, DetectsSerialDependence) {
  // Sticky chain p_stay = 0.9: per-step min-entropy ~ -log2(0.9) ~ 0.152.
  const auto r = markov(markov_bits(500000, 0.9, 6));
  EXPECT_NEAR(r.h_min, 0.152, 0.02);
}

TEST(Markov, AlternatingSequenceIsZeroEntropy) {
  BitStream bs;
  for (int i = 0; i < 100000; ++i) bs.push_back(i % 2 == 0);
  EXPECT_LT(markov(bs).h_min, 0.01);
}

TEST(Compression, IdealDataHigh) {
  EXPECT_GT(compression(ideal_bits(1000000, 7)).h_min, 0.8);
}

TEST(Compression, DetectsRepeatedPages) {
  support::Xoshiro256 rng(8);
  std::vector<bool> page(600);
  for (auto&& b : page) b = rng.bernoulli(0.5);
  BitStream bs;
  for (int rep = 0; rep < 1000; ++rep) {
    for (bool b : page) bs.push_back(b);
  }
  EXPECT_LT(compression(bs).h_min, compression(ideal_bits(600000, 9)).h_min);
}

TEST(TTuple, IdealDataHigh) {
  EXPECT_GT(t_tuple(ideal_bits(1000000, 10)).h_min, 0.85);
}

TEST(TTuple, DetectsBias) {
  EXPECT_LT(t_tuple(biased_bits(500000, 0.75, 11)).h_min, 0.55);
}

TEST(TTuple, AllOnesIsPositiveZeroEntropy) {
  const EstimatorResult r = t_tuple(BitStream(4096, true));
  EXPECT_EQ(r.p_max, 1.0);
  EXPECT_EQ(r.h_min, 0.0);
  EXPECT_FALSE(std::signbit(r.h_min));
}

TEST(TTuple, FlatTableAndRefinerMatchOracle) {
  // The kernel reads short lengths from one folded flat table and only the
  // lengths past it from the refiner: tiny streams (the table as long as
  // the stream), ideal data (flat table only), and biased and periodic
  // data whose counts stay above the cutoff past the table.
  const auto expect_match = [](const BitStream& bits) {
    EXPECT_EQ(kernels::t_tuple_p_hat(bits), oracle::t_tuple_p_hat(bits))
        << bits.size() << " bits";
  };
  for (std::size_t n = 0; n <= 80; ++n) expect_match(ideal_bits(n, 40 + n));
  expect_match(ideal_bits(30000, 41));
  expect_match(biased_bits(30000, 0.8, 42));
  expect_match(markov_bits(30000, 0.9, 43));
  BitStream periodic;
  for (std::size_t i = 0; i < 5000; ++i) periodic.push_back(i % 7 < 3);
  expect_match(periodic);
}

// t-Tuple and LRS report the 99% upper bound on their p-hat (written out
// here, not read from the shared scorer), then -log2 of it.
TEST(TupleLrsBound, IsTheUpperConfidenceBoundOnPHat) {
  const BitStream bits = biased_bits(30000, 0.7, 44);
  const double n = static_cast<double>(bits.size());
  for (const auto& [r, p_hat] :
       {std::pair{t_tuple(bits), oracle::t_tuple_p_hat(bits)},
        std::pair{lrs(bits), oracle::lrs_p_hat(bits)}}) {
    ASSERT_GT(p_hat, 0.0) << r.name;
    ASSERT_LT(p_hat, 1.0) << r.name;
    const double half_width =
        2.5758293035489004 * std::sqrt(p_hat * (1.0 - p_hat) / (n - 1.0));
    const double p_u = p_hat + half_width;
    EXPECT_DOUBLE_EQ(r.p_max, p_u) << r.name;
    EXPECT_DOUBLE_EQ(r.h_min, -std::log2(p_u)) << r.name;
  }
}

TEST(Lrs, IdealDataHigh) {
  EXPECT_GT(lrs(ideal_bits(500000, 12)).h_min, 0.8);
}

TEST(Lrs, DetectsLongRepeats) {
  // Duplicate a long random segment inside otherwise random data.
  support::Xoshiro256 rng(13);
  BitStream bs = ideal_bits(200000, 14);
  BitStream dup = bs.slice(1000, 50000);
  bs.append(dup);
  bs.append(ideal_bits(100000, 15));
  EXPECT_LT(lrs(bs).h_min, lrs(ideal_bits(350000, 16)).h_min);
}

TEST(MultiMcw, IdealDataHigh) {
  EXPECT_GT(multi_mcw(ideal_bits(500000, 17)).h_min, 0.95);
}

TEST(MultiMcw, DetectsSlowBiasDrift) {
  // Long stretches of opposite bias: the windowed predictors track them.
  support::Xoshiro256 rng(18);
  BitStream bs;
  for (int seg = 0; seg < 50; ++seg) {
    const double p = seg % 2 == 0 ? 0.8 : 0.2;
    for (int i = 0; i < 10000; ++i) bs.push_back(rng.bernoulli(p));
  }
  EXPECT_LT(multi_mcw(bs).h_min, 0.8);
}

TEST(Lag, IdealDataHigh) {
  EXPECT_GT(lag(ideal_bits(500000, 19)).h_min, 0.95);
}

TEST(Lag, DetectsPeriodicity) {
  // Period-7 pattern with 5% noise: the lag-7 predictor nails it.
  support::Xoshiro256 rng(20);
  BitStream bs;
  const bool pattern[7] = {1, 0, 0, 1, 1, 0, 1};
  for (int i = 0; i < 300000; ++i) {
    bs.push_back(rng.bernoulli(0.05) ? !pattern[i % 7] : pattern[i % 7]);
  }
  EXPECT_LT(lag(bs).h_min, 0.4);
}

TEST(MultiMmc, IdealDataHigh) {
  EXPECT_GT(multi_mmc(ideal_bits(500000, 21)).h_min, 0.95);
}

TEST(MultiMmc, DetectsMarkovStructure) {
  EXPECT_LT(multi_mmc(markov_bits(500000, 0.85, 22)).h_min, 0.45);
}

TEST(Lz78y, IdealDataHigh) {
  EXPECT_GT(lz78y(ideal_bits(500000, 23)).h_min, 0.95);
}

TEST(Lz78y, DetectsDictionaryStructure) {
  EXPECT_LT(lz78y(markov_bits(500000, 0.9, 24)).h_min, 0.4);
}

TEST(EstimatorKat, BiasedBernoulliStream) {
  // Known-answer test on a fixed stream: Bernoulli(p = 0.75), seed 42,
  // 5e5 bits.  The true per-bit min-entropy is -log2(0.75) = 0.415037.
  // MCV reports an upper confidence bound on p (99% CI half-width
  // 2.576*sqrt(p(1-p)/(n-1)) ~ 0.0016 at this n), so its p-max must land
  // in a narrow band just above the empirical frequency.
  const auto bits = biased_bits(500000, 0.75, 42);
  const auto m = mcv(bits);
  EXPECT_GT(m.p_max, 0.747);
  EXPECT_LT(m.p_max, 0.754);
  EXPECT_NEAR(m.h_min, 0.415037, 0.008);
  // An independent biased stream has no serial structure, so the Markov
  // estimate converges on the same bias entropy...
  EXPECT_NEAR(markov(bits).h_min, 0.415037, 0.02);
  // ...and the suite minimum can never exceed the MCV row.
  EXPECT_LE(overall_min_entropy(bits), m.h_min + 1e-12);
  // The IID-track assessment is defined as exactly the MCV number.
  EXPECT_DOUBLE_EQ(iid_min_entropy(bits), m.h_min);
}

TEST(Suite, RunAllHasTenRowsInTable4Order) {
  const auto rows = run_all(ideal_bits(200000, 25));
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows[0].name, "MCV");
  EXPECT_EQ(rows[1].name, "Collision");
  EXPECT_EQ(rows[2].name, "Markov");
  EXPECT_EQ(rows[3].name, "Compression");
  EXPECT_EQ(rows[9].name, "LZ78Y");
}

TEST(Suite, OverallIsMinimum) {
  const auto bits = ideal_bits(200000, 26);
  const double overall = overall_min_entropy(bits);
  for (const auto& r : run_all(bits)) {
    EXPECT_LE(overall, r.h_min + 1e-12) << r.name;
  }
}

TEST(Suite, IidTrackIsMcv) {
  const auto bits = ideal_bits(100000, 27);
  EXPECT_DOUBLE_EQ(iid_min_entropy(bits), mcv(bits).h_min);
}

TEST(PredictorBound, PerfectPredictionGivesZeroEntropy) {
  EXPECT_GT(predictor_p_max(10000, 10000, 10000), 0.99);
}

TEST(PredictorBound, ChancePredictionGivesHalf) {
  const double p = predictor_p_max(5000, 10000, 16);
  EXPECT_NEAR(p, 0.5, 0.05);
}

TEST(PredictorBound, LongRunRaisesLocalBound) {
  // Same hit rate, much longer best run -> higher p (lower entropy).
  EXPECT_GT(predictor_p_max(5000, 10000, 200),
            predictor_p_max(5000, 10000, 15));
}

}  // namespace
}  // namespace dhtrng::stats::sp800_90b
