#include "support/bitstream.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "support/rng.h"

namespace dhtrng::support {
namespace {

TEST(BitStream, StartsEmpty) {
  BitStream bs;
  EXPECT_TRUE(bs.empty());
  EXPECT_EQ(bs.size(), 0u);
  EXPECT_EQ(bs.count_ones(), 0u);
}

TEST(BitStream, PushAndIndex) {
  BitStream bs;
  bs.push_back(true);
  bs.push_back(false);
  bs.push_back(true);
  ASSERT_EQ(bs.size(), 3u);
  EXPECT_TRUE(bs[0]);
  EXPECT_FALSE(bs[1]);
  EXPECT_TRUE(bs[2]);
}

TEST(BitStream, ConstructorFillsValue) {
  BitStream zeros(100, false);
  BitStream ones(100, true);
  EXPECT_EQ(zeros.count_ones(), 0u);
  EXPECT_EQ(ones.count_ones(), 100u);
}

TEST(BitStream, FromStringParsesAndIgnoresWhitespace) {
  const BitStream bs = BitStream::from_string("10 1\n1");
  ASSERT_EQ(bs.size(), 4u);
  EXPECT_TRUE(bs[0]);
  EXPECT_FALSE(bs[1]);
  EXPECT_TRUE(bs[2]);
  EXPECT_TRUE(bs[3]);
}

TEST(BitStream, FromStringRejectsGarbage) {
  EXPECT_THROW(BitStream::from_string("10x"), std::invalid_argument);
}

TEST(BitStream, RoundTripString) {
  const std::string s = "110100111000101";
  EXPECT_EQ(BitStream::from_string(s).to_string(), s);
}

TEST(BitStream, BytesRoundTrip) {
  const std::vector<std::uint8_t> bytes = {0xA5, 0x01, 0xFF};
  const BitStream bs = BitStream::from_bytes(bytes);
  ASSERT_EQ(bs.size(), 24u);
  EXPECT_EQ(bs.to_bytes(), bytes);
  // MSB-first: 0xA5 = 10100101.
  EXPECT_TRUE(bs[0]);
  EXPECT_FALSE(bs[1]);
  EXPECT_TRUE(bs[2]);
}

TEST(BitStream, AppendWordAndPackBytesMatchPerBitForms) {
  // Word appends at every misaligned offset agree with push_back, and
  // pack_bytes agrees with to_bytes (zero-padded final byte).
  Xoshiro256 rng(7);
  BitStream by_word, by_bit;
  for (std::size_t nbits : {3u, 64u, 61u, 0u, 17u, 64u, 40u}) {
    const std::uint64_t w = rng();
    by_word.append_word(w, nbits);
    for (std::size_t b = 0; b < nbits; ++b) by_bit.push_back((w >> b) & 1u);
  }
  ASSERT_EQ(by_word.size(), by_bit.size());
  EXPECT_EQ(by_word, by_bit);
  std::vector<std::uint8_t> packed((by_word.size() + 7) / 8, 0xff);
  by_word.pack_bytes(packed);
  EXPECT_EQ(packed, by_bit.to_bytes());
  EXPECT_EQ(BitStream::from_bytes(packed).slice(0, by_bit.size()), by_bit);
}

TEST(BitStream, CountOnesInRangeCrossesWords) {
  BitStream bs(200, false);
  for (std::size_t i = 60; i < 70; ++i) bs.set(i, true);
  EXPECT_EQ(bs.count_ones(0, 60), 0u);
  EXPECT_EQ(bs.count_ones(60, 10), 10u);
  EXPECT_EQ(bs.count_ones(50, 30), 10u);
  EXPECT_EQ(bs.count_ones(65, 100), 5u);
}

TEST(BitStream, CountOnesRangeBoundsChecked) {
  BitStream bs(10, false);
  EXPECT_THROW(bs.count_ones(5, 6), std::out_of_range);
}

TEST(BitStream, SliceCopiesSubrange) {
  const BitStream bs = BitStream::from_string("110100111");
  EXPECT_EQ(bs.slice(2, 4).to_string(), "0100");
  EXPECT_THROW(bs.slice(5, 6), std::out_of_range);
}

TEST(BitStream, WordIsMsbFirst) {
  const BitStream bs = BitStream::from_string("10110000");
  EXPECT_EQ(bs.word(0, 4), 0b1011u);
  EXPECT_EQ(bs.word(2, 3), 0b110u);
  EXPECT_THROW(bs.word(0, 65), std::out_of_range);
}

TEST(BitStream, AppendAlignedAndUnaligned) {
  BitStream a = BitStream::from_string("101");
  const BitStream b = BitStream::from_string("0110");
  a.append(b);
  EXPECT_EQ(a.to_string(), "1010110");

  BitStream c(64, true);  // word aligned
  c.append(b);
  EXPECT_EQ(c.size(), 68u);
  EXPECT_EQ(c.count_ones(), 66u);
}

TEST(BitStream, ExclusiveOr) {
  const BitStream a = BitStream::from_string("1100");
  const BitStream b = BitStream::from_string("1010");
  EXPECT_EQ(BitStream::exclusive_or(a, b).to_string(), "0110");
  EXPECT_THROW(
      BitStream::exclusive_or(a, BitStream::from_string("1")),
      std::invalid_argument);
}

TEST(BitStream, EqualityComparesContent) {
  EXPECT_EQ(BitStream::from_string("1010"), BitStream::from_string("1010"));
  EXPECT_FALSE(BitStream::from_string("1010") == BitStream::from_string("1011"));
  EXPECT_FALSE(BitStream::from_string("101") == BitStream::from_string("1010"));
}

TEST(BitStream, Chunk64ReadsAcrossWordBoundary) {
  Xoshiro256 rng(123);
  BitStream bs;
  for (int i = 0; i < 300; ++i) bs.push_back(rng.bernoulli(0.5));
  for (std::size_t pos : {0u, 1u, 63u, 64u, 100u, 235u}) {
    const std::uint64_t chunk = bs.chunk64(pos);
    for (std::size_t j = 0; j < 64 && pos + j < bs.size(); ++j) {
      ASSERT_EQ((chunk >> j) & 1u, bs[pos + j] ? 1u : 0u)
          << "pos=" << pos << " j=" << j;
    }
  }
}

TEST(BitStream, Chunk64MasksPastEnd) {
  BitStream bs(10, true);
  EXPECT_EQ(bs.chunk64(0), (1ULL << 10) - 1);
  EXPECT_EQ(bs.chunk64(8), 0x3u);
}

TEST(BitStream, HammingDistanceMatchesNaive) {
  Xoshiro256 rng(77);
  BitStream bs;
  for (int i = 0; i < 500; ++i) bs.push_back(rng.bernoulli(0.5));
  for (auto [a, b, len] : {std::tuple<std::size_t, std::size_t, std::size_t>{0, 1, 100},
                           {3, 130, 300},
                           {17, 20, 63},
                           {0, 250, 250}}) {
    std::size_t naive = 0;
    for (std::size_t i = 0; i < len; ++i) {
      naive += bs[a + i] != bs[b + i] ? 1u : 0u;
    }
    EXPECT_EQ(bs.hamming_distance(a, b, len), naive);
  }
}

TEST(BitStream, ToPbmShape) {
  BitStream bs(16, false);
  bs.set(0, true);
  bs.set(5, true);
  const std::string pbm = bs.to_pbm(4, 4);
  EXPECT_EQ(pbm.substr(0, 3), "P1\n");
  EXPECT_NE(pbm.find("4 4"), std::string::npos);
  // Inverted image flips every pixel.
  const std::string inv = bs.to_pbm(4, 4, true);
  EXPECT_NE(pbm, inv);
}

TEST(BitStream, ReserveDoesNotChangeSize) {
  BitStream bs;
  bs.reserve(1000);
  EXPECT_EQ(bs.size(), 0u);
}

TEST(BitStream, AtMatchesIndexAndThrowsOutOfRange) {
  Xoshiro256 rng(11);
  BitStream bs;
  for (int i = 0; i < 70; ++i) bs.push_back(rng.bernoulli(0.5));
  for (std::size_t i = 0; i < bs.size(); ++i) {
    EXPECT_EQ(bs.at(i), bs[i]) << "i=" << i;
  }
  EXPECT_THROW(bs.at(bs.size()), std::out_of_range);
  EXPECT_THROW(bs.at(bs.size() + 1000), std::out_of_range);
  EXPECT_THROW(BitStream().at(0), std::out_of_range);
}

TEST(BitStream, WordsViewMatchesBitsAndZeroPadsTail) {
  Xoshiro256 rng(42);
  // 130 bits: two full words plus a 2-bit tail in the third word.
  BitStream bs;
  for (int i = 0; i < 130; ++i) bs.push_back(rng.bernoulli(0.5));
  const auto words = bs.words();
  ASSERT_EQ(words.size(), 3u);
  for (std::size_t i = 0; i < bs.size(); ++i) {
    EXPECT_EQ((words[i >> 6] >> (i & 63)) & 1u, bs[i] ? 1u : 0u) << "i=" << i;
  }
  // Invariant the wordwise kernels rely on: bits past size() are zero.
  EXPECT_EQ(words[2] >> 2, 0u);
}

TEST(BitStream, WordsTailStaysZeroAfterSet) {
  BitStream bs(70, true);
  bs.set(69, false);
  bs.set(69, true);
  const auto words = bs.words();
  ASSERT_EQ(words.size(), 2u);
  EXPECT_EQ(words[1] >> 6, 0u);
  EXPECT_EQ(bs.chunk64(64), 0x3fu);
}

TEST(BitStream, Chunk64AtExactEndIsZero) {
  BitStream bs(64, true);
  EXPECT_EQ(bs.chunk64(64), 0u);
  EXPECT_EQ(bs.chunk64(0), ~std::uint64_t{0});
}

}  // namespace
}  // namespace dhtrng::support
