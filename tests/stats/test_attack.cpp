#include "stats/attack.h"

#include <gtest/gtest.h>

#include "core/dhtrng.h"
#include "support/rng.h"

namespace dhtrng::stats {
namespace {

using support::BitStream;

TEST(LogisticAttack, ChanceAccuracyOnIdealData) {
  support::Xoshiro256 rng(1);
  BitStream bs;
  for (int i = 0; i < 120000; ++i) bs.push_back(rng.bernoulli(0.5));
  const auto r = logistic_attack(bs);
  EXPECT_NEAR(r.test_accuracy, 0.5, 0.01);
  EXPECT_FALSE(r.predictable());
}

TEST(LogisticAttack, LearnsBias) {
  support::Xoshiro256 rng(2);
  BitStream bs;
  for (int i = 0; i < 120000; ++i) bs.push_back(rng.bernoulli(0.75));
  const auto r = logistic_attack(bs);
  // Always predicting the majority value gives 75%.
  EXPECT_GT(r.test_accuracy, 0.72);
  EXPECT_TRUE(r.predictable());
}

TEST(LogisticAttack, BreaksNoisyPeriodicPattern) {
  // A period-7 pattern with 10% flip noise: the lag-7 history feature is
  // linearly separable, so the attack should reach ~90% accuracy.
  support::Xoshiro256 rng(21);
  BitStream bs;
  const bool pattern[7] = {1, 0, 0, 1, 1, 0, 1};
  for (int i = 0; i < 120000; ++i) {
    bs.push_back(rng.bernoulli(0.1) ? !pattern[i % 7] : pattern[i % 7]);
  }
  const auto r = logistic_attack(bs);
  EXPECT_GT(r.test_accuracy, 0.85);
  EXPECT_TRUE(r.predictable());
}

TEST(LogisticAttack, CannotLearnWideParity) {
  // A 16-bit LFSR's next bit is a 4-way parity of its history — the
  // textbook non-linearly-separable function.  Logistic regression (like
  // any linear model) must fail here, which documents the attack's scope:
  // it catches bias, Markov structure and periodicity, not GF(2)-linear
  // recurrences (Berlekamp-Massey in SP 800-22 covers those).
  BitStream bs;
  unsigned state = 0xACE1;
  for (int i = 0; i < 120000; ++i) {
    bs.push_back(state & 1u);
    const unsigned fb =
        ((state >> 0) ^ (state >> 2) ^ (state >> 3) ^ (state >> 5)) & 1u;
    state = (state >> 1) | (fb << 15);
  }
  const auto r = logistic_attack(bs);
  EXPECT_NEAR(r.test_accuracy, 0.5, 0.02);
}

TEST(LogisticAttack, BreaksStickyMarkov) {
  support::Xoshiro256 rng(3);
  BitStream bs;
  bool cur = false;
  for (int i = 0; i < 120000; ++i) {
    bs.push_back(cur);
    cur = rng.bernoulli(0.8) ? cur : !cur;
  }
  const auto r = logistic_attack(bs);
  EXPECT_GT(r.test_accuracy, 0.75);
}

TEST(LogisticAttack, DhTrngResists) {
  core::DhTrng trng({.seed = 4});
  const auto r = logistic_attack(trng.generate(150000));
  EXPECT_NEAR(r.test_accuracy, 0.5, 0.012);
  EXPECT_FALSE(r.predictable());
}

TEST(LogisticAttack, RejectsShortStreams) {
  EXPECT_THROW(logistic_attack(BitStream(10, false)), std::invalid_argument);
}

TEST(LogisticAttack, ReportsSplitSizes) {
  support::Xoshiro256 rng(5);
  BitStream bs;
  for (int i = 0; i < 50024; ++i) bs.push_back(rng.bernoulli(0.5));
  const auto r = logistic_attack(bs);
  EXPECT_EQ(r.train_bits + r.test_bits, 50024u - 24u);
  EXPECT_NEAR(static_cast<double>(r.train_bits) /
                  static_cast<double>(r.train_bits + r.test_bits),
              0.6, 0.01);
}

}  // namespace
}  // namespace dhtrng::stats
