#include "core/postprocess.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "stats/correlation.h"
#include "stats/sp800_90b.h"
#include "support/rng.h"

namespace dhtrng::core {
namespace {

using support::BitStream;

BitStream biased_bits(std::size_t n, double p, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  BitStream bs;
  bs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) bs.push_back(rng.bernoulli(p));
  return bs;
}

// The von Neumann extractor is the Peres extractor at depth 1.
TEST(VonNeumann, MappingIsExact) {
  // pairs: 10 -> 1, 01 -> 0, 11 -> skip, 00 -> skip
  const BitStream raw = BitStream::from_string("10" "01" "11" "00" "10");
  EXPECT_EQ(peres_extract(raw, 1).to_string(), "101");
}

TEST(VonNeumann, RemovesHeavyBias) {
  const auto raw = biased_bits(400000, 0.8, 1);
  const auto out = peres_extract(raw, 1);
  EXPECT_LT(stats::bias_percent(out), 0.5);
  // Rate: 2 p (1-p) pairs yield output: 0.32 per pair = 0.16 per raw bit.
  EXPECT_NEAR(static_cast<double>(out.size()) /
                  static_cast<double>(raw.size()),
              0.16, 0.01);
}

TEST(VonNeumann, IdealInputQuarterRate) {
  const auto raw = biased_bits(100000, 0.5, 2);
  const auto out = peres_extract(raw, 1);
  EXPECT_NEAR(static_cast<double>(out.size()) /
                  static_cast<double>(raw.size()),
              0.25, 0.01);
}

TEST(Peres, UnbiasedMappingOnSmallInput) {
  // 10 01 11 00: VN yields "10"; the xors 1100 add "1" (through their
  // own discards 10) and the discards 10 add "1".  Total output longer
  // than plain VN.
  const auto out = peres_extract(BitStream::from_string("10011100"));
  const auto vn = peres_extract(BitStream::from_string("10011100"), 1);
  EXPECT_EQ(vn.to_string(), "10");
  EXPECT_EQ(out.to_string(), "1011");
  EXPECT_GT(out.size(), vn.size());
}

TEST(Peres, BeatsVonNeumannRate) {
  const auto raw = biased_bits(400000, 0.7, 11);
  const auto vn = peres_extract(raw, 1);
  const auto peres = peres_extract(raw);
  // VN rate = p(1-p) = 0.21; Peres approaches H(0.7) ~ 0.88.
  EXPECT_GT(peres.size(), 2 * vn.size());
  EXPECT_GT(static_cast<double>(peres.size()) /
                static_cast<double>(raw.size()),
            0.5);
}

TEST(Peres, OutputIsUnbiased) {
  const auto raw = biased_bits(400000, 0.8, 12);
  const auto out = peres_extract(raw);
  EXPECT_LT(stats::bias_percent(out), 1.0);
}

TEST(Peres, OutputPassesMcv) {
  const auto raw = biased_bits(300000, 0.75, 13);
  EXPECT_GT(stats::sp800_90b::mcv(peres_extract(raw)).h_min, 0.98);
}

TEST(Peres, DepthZeroYieldsNothing) {
  EXPECT_TRUE(peres_extract(BitStream(100, true), 0).empty());
}

TEST(Peres, DepthOneEqualsVonNeumann) {
  const auto raw = biased_bits(10000, 0.6, 14);
  BitStream vn;
  for (std::size_t i = 0; i + 1 < raw.size(); i += 2) {
    if (raw[i] != raw[i + 1]) vn.push_back(raw[i]);  // 01 -> 0, 10 -> 1
  }
  EXPECT_EQ(peres_extract(raw, 1), vn);
}

TEST(XorCompress, FoldOneIsIdentity) {
  const auto raw = biased_bits(1000, 0.5, 3);
  EXPECT_EQ(xor_compress(raw, 1), raw);
}

TEST(XorCompress, RejectsZeroFold) {
  EXPECT_THROW(xor_compress(BitStream(8, false), 0), std::invalid_argument);
}

TEST(XorCompress, BiasFallsGeometrically) {
  // Piling-up: bias eps -> (2 eps)^n / 2.  With p = 0.7 (eps = 0.2),
  // folding 4 gives bias 0.5 * 0.4^4 ~ 1.3%.
  const auto raw = biased_bits(2000000, 0.7, 4);
  const auto out = xor_compress(raw, 4);
  EXPECT_NEAR(stats::bias_percent(out), 2.56, 0.6);  // |2p-1| form: 2*1.28%
  EXPECT_LT(stats::bias_percent(out), stats::bias_percent(raw) / 4.0);
}

TEST(XorCompress, LengthIsFloorDivision) {
  const auto raw = biased_bits(103, 0.5, 5);
  EXPECT_EQ(xor_compress(raw, 10).size(), 10u);
}

TEST(Sha256Condition, OutputBlocks) {
  const auto raw = biased_bits(4096, 0.5, 6);
  const auto out = sha256_condition(raw);
  EXPECT_EQ(out.size(), 8u * 256u);  // 8 input blocks -> 8 digests
}

TEST(Sha256Condition, MatchesBlockEntryAndDropsPartialBlock) {
  const std::size_t block_bits = 8 * kConditionInputBytes;
  const auto raw = biased_bits(2 * block_bits + block_bits - 1, 0.5, 9);
  const std::vector<std::uint8_t> bytes = raw.to_bytes();
  std::vector<std::uint8_t> want;
  for (std::size_t block = 0; block < 2; ++block) {
    const auto digest = sha256_condition_block(
        std::span(bytes)
            .subspan(block * kConditionInputBytes)
            .first<kConditionInputBytes>());
    want.insert(want.end(), digest.begin(), digest.end());
  }
  EXPECT_EQ(sha256_condition(raw), BitStream::from_bytes(want));
  EXPECT_TRUE(sha256_condition(raw.slice(0, block_bits - 1)).empty());
}

TEST(Sha256Condition, FullEntropyOutputFromBiasedInput) {
  // p = 0.6 input has h ~ 0.737/bit; each 512-bit input block carries
  // ~377 bits of min-entropy >= 256 + 64, so the 256-bit outputs are
  // full-entropy.
  const auto raw = biased_bits(512 * 200, 0.6, 7);
  const auto out = sha256_condition(raw);
  EXPECT_GT(stats::sp800_90b::mcv(out).h_min, 0.98);
  EXPECT_LT(stats::bias_percent(out), 1.0);
}

TEST(Sha256Condition, DeterministicAndInputSensitive) {
  const auto raw = biased_bits(2048, 0.5, 8);
  EXPECT_EQ(sha256_condition(raw), sha256_condition(raw));
  auto tweaked = raw;
  tweaked.set(100, !tweaked[100]);
  EXPECT_NE(sha256_condition(raw), sha256_condition(tweaked));
}

}  // namespace
}  // namespace dhtrng::core
