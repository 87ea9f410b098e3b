#include "support/berlekamp_massey.h"

#include <gtest/gtest.h>

#include "support/bitstream.h"
#include "support/rng.h"
#include "support/stats_oracle.h"

namespace dhtrng::support {
namespace {

std::size_t lc(const std::string& s) {
  const BitStream bits = BitStream::from_string(s);
  return linear_complexity(bits, 0, bits.size());
}

TEST(BerlekampMassey, AllZerosHasComplexityZero) {
  EXPECT_EQ(lc("00000000"), 0u);
}

TEST(BerlekampMassey, SingleOneAtEndIsMaximal) {
  // 0^(n-1) 1 has linear complexity n.
  EXPECT_EQ(lc("0001"), 4u);
  EXPECT_EQ(lc("00000001"), 8u);
}

TEST(BerlekampMassey, AlternatingSequence) {
  // 101010... satisfies s_n = s_{n-2} (and s_n = !s_{n-1}); LFSR length 2.
  EXPECT_EQ(lc("10101010101010"), 2u);
}

TEST(BerlekampMassey, ConstantOnes) {
  // 111... : s_n = s_{n-1}, length 1.
  EXPECT_EQ(lc("11111111"), 1u);
}

TEST(BerlekampMassey, NistDocExample) {
  // SP 800-22 section 2.10.8 example: 1101011110001 has L = 4.
  EXPECT_EQ(lc("1101011110001"), 4u);
}

TEST(BerlekampMassey, M_SequenceFromLfsr) {
  // LFSR x^4 + x + 1 (taps 4,1) produces a length-15 m-sequence with L = 4.
  BitStream bits;
  unsigned state = 0b1001;
  for (int i = 0; i < 30; ++i) {
    bits.push_back(state & 1u);
    const unsigned fb = ((state >> 0) ^ (state >> 3)) & 1u;
    state = (state >> 1) | (fb << 3);
  }
  EXPECT_EQ(linear_complexity(bits, 0, bits.size()), 4u);
}

TEST(BerlekampMassey, MatchesNaiveOnRandomBlocks) {
  Xoshiro256 rng(31);
  BitStream bits;
  for (int i = 0; i < 3000; ++i) bits.push_back(rng.bernoulli(0.5));
  for (std::size_t begin : {0u, 500u, 1000u}) {
    for (std::size_t len : {1u, 17u, 64u, 100u, 500u}) {
      EXPECT_EQ(linear_complexity(bits, begin, len),
                stats::oracle::linear_complexity(bits, begin, len))
          << "begin=" << begin << " len=" << len;
    }
  }
}

TEST(BerlekampMassey, RandomBlockNearHalfLength) {
  Xoshiro256 rng(77);
  BitStream bits;
  for (int i = 0; i < 500; ++i) bits.push_back(rng.bernoulli(0.5));
  const std::size_t l = linear_complexity(bits, 0, 500);
  EXPECT_NEAR(static_cast<double>(l), 250.0, 6.0);
}

TEST(BerlekampMassey, EmptyBlock) {
  BitStream bits = BitStream::from_string("101");
  EXPECT_EQ(linear_complexity(bits, 0, 0), 0u);
}

}  // namespace
}  // namespace dhtrng::support
