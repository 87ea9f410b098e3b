// Known-answer tests from the worked examples in NIST SP 800-22 rev 1a,
// and the appendix reference run: the published P-values for the first
// 10^6 bits of the binary expansion of e (the STS `data.e` input, section
// 5 / appendix B example report), recomputed here from scratch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/sp800_22.h"

namespace dhtrng::stats::sp800_22 {
namespace {

using support::BitStream;

// --- binary expansion of e -------------------------------------------------
//
// e - 2 = sum_{j=2..K} 1/j! evaluated right-to-left as a fixed-point
// spigot: acc <- (1 + acc)/k for k = K..2 leaves acc = e - 2 exactly (to
// the working precision).  Steps are batched while the combined divisor
// P = k(k-1)...(k-m+1) fits 63 bits; composing (C+x)/P with one more step
// 1/(k-m) gives C' = C + P, P' = P*(k-m).
__extension__ typedef unsigned __int128 uint128;

std::vector<std::uint64_t> e_fraction_words(std::size_t fraction_bits) {
  const std::size_t words = (fraction_bits + 63) / 64;
  double log2_factorial = 0.0;
  std::uint64_t terms = 1;
  while (log2_factorial < static_cast<double>(fraction_bits + 64)) {
    ++terms;
    log2_factorial += std::log2(static_cast<double>(terms));
  }
  std::vector<std::uint64_t> acc(words, 0);
  std::uint64_t k = terms;
  while (k >= 2) {
    uint128 p = 1, c = 0;
    std::uint64_t j = k;
    while (j >= 2 && p * j < (static_cast<uint128>(1) << 63)) {
      c += p;
      p *= j;
      --j;
    }
    const std::uint64_t divisor = static_cast<std::uint64_t>(p);
    uint128 remainder = c;
    for (std::size_t i = 0; i < words; ++i) {
      const uint128 cur = (remainder << 64) | acc[i];
      acc[i] = static_cast<std::uint64_t>(cur / divisor);
      remainder = cur % divisor;
    }
    k = j;
  }
  return acc;
}

/// First `n` bits of the binary expansion of e — integer part "10" first,
/// matching the STS data/data.e file (that is what reproduces the
/// published reference P-values below).
const BitStream& e_expansion_1m() {
  static const BitStream bits = [] {
    const std::size_t n = 1000000;
    const auto words = e_fraction_words(n + 64);
    BitStream bs;
    bs.reserve(n);
    bs.push_back(true);
    bs.push_back(false);
    for (std::size_t i = 0; i + 2 < n; ++i) {
      bs.push_back((words[i / 64] >> (63 - i % 64)) & 1u);
    }
    return bs;
  }();
  return bits;
}

TEST(NistEExpansion, SpigotMatchesKnownPrefix) {
  // e = 10.1011011111100001010100010110001010001010111011010... in binary.
  EXPECT_EQ(e_expansion_1m().slice(0, 40).to_string(),
            "1010110111111000010101000101100010100010");
  EXPECT_EQ(e_expansion_1m().size(), 1000000u);
}

// The SP 800-22 rev 1a reference P-values for the first 10^6 bits of e,
// with the standard STS parameters.  Matching them to 1e-6 is a strong
// end-to-end KAT of each test's statistic, its reference distribution and
// the special functions underneath.

TEST(NistEExpansion, Frequency) {
  EXPECT_NEAR(frequency(e_expansion_1m()).p_value(), 0.953749, 2e-6);
}

TEST(NistEExpansion, BlockFrequency) {
  EXPECT_NEAR(block_frequency(e_expansion_1m(), 128).p_value(), 0.211072,
              2e-6);
}

TEST(NistEExpansion, CumulativeSums) {
  const auto r = cumulative_sums(e_expansion_1m());
  ASSERT_EQ(r.p_values.size(), 2u);
  EXPECT_NEAR(r.p_values[0], 0.669887, 5e-6);  // forward
  EXPECT_NEAR(r.p_values[1], 0.724266, 5e-6);  // reverse
}

TEST(NistEExpansion, Runs) {
  EXPECT_NEAR(runs(e_expansion_1m()).p_value(), 0.561917, 2e-6);
}

TEST(NistEExpansion, LongestRun) {
  EXPECT_NEAR(longest_run(e_expansion_1m()).p_value(), 0.718945, 2e-6);
}

TEST(NistEExpansion, Rank) {
  EXPECT_NEAR(rank(e_expansion_1m()).p_value(), 0.306156, 2e-6);
}

TEST(NistEExpansion, RankOnFirst100kBits) {
  // Section 2.5.8 worked example: the first 10^5 bits of e.
  EXPECT_NEAR(rank(e_expansion_1m().slice(0, 100000)).p_value(), 0.532069,
              2e-6);
}

TEST(NistEExpansion, Dft) {
  EXPECT_NEAR(dft(e_expansion_1m()).p_value(), 0.847187, 2e-6);
}

TEST(NistEExpansion, NonOverlappingTemplateFirstTemplate) {
  // First aperiodic template of length 9 is B = 000000001; the reference
  // report quotes its sub-test P-value.
  const auto r = non_overlapping_template(e_expansion_1m());
  ASSERT_FALSE(r.p_values.empty());
  EXPECT_NEAR(r.p_values[0], 0.078790, 2e-6);
}

TEST(NistEExpansion, Universal) {
  EXPECT_NEAR(universal(e_expansion_1m()).p_value(), 0.282568, 2e-6);
}

TEST(NistEExpansion, ApproximateEntropy) {
  EXPECT_NEAR(approximate_entropy(e_expansion_1m()).p_value(), 0.700073,
              2e-6);
}

TEST(NistEExpansion, SerialM2) {
  // Section 2.11.8's large example: m = 2 on the full 10^6 bits.
  const auto r = serial(e_expansion_1m(), 2);
  ASSERT_EQ(r.p_values.size(), 2u);
  EXPECT_NEAR(r.p_values[0], 0.843764, 2e-6);
  EXPECT_NEAR(r.p_values[1], 0.561915, 2e-6);
}

TEST(NistEExpansion, SerialM16) {
  // The reference report's serial row uses the standard m = 16.
  const auto r = serial(e_expansion_1m(), 16);
  ASSERT_EQ(r.p_values.size(), 2u);
  EXPECT_NEAR(r.p_values[0], 0.766182, 2e-6);
}

TEST(NistEExpansion, RandomExcursionsVariantAtMinusOne) {
  // 18 sub-tests for x in {-9..-1, 1..9}; the reference report quotes
  // x = -1 (index 8).
  const auto r = random_excursions_variant(e_expansion_1m());
  ASSERT_EQ(r.p_values.size(), 18u);
  EXPECT_NEAR(r.p_values[8], 0.826009, 2e-6);
}

TEST(NistVectors, FrequencyExample) {
  // Section 2.1.8: eps = 1011010101, n = 10 -> P-value = 0.527089.
  const auto r = frequency(BitStream::from_string("1011010101"));
  EXPECT_NEAR(r.p_value(), 0.527089, 1e-6);
}

TEST(NistVectors, BlockFrequencyExample) {
  // Section 2.2.8: eps = 0110011010, M = 3 -> P-value = 0.801252.
  const auto r = block_frequency(BitStream::from_string("0110011010"), 3);
  EXPECT_NEAR(r.p_value(), 0.801252, 1e-6);
}

TEST(NistVectors, RunsExample) {
  // Section 2.3.8: eps = 1001101011, n = 10 -> P-value = 0.147232.
  const auto r = runs(BitStream::from_string("1001101011"));
  EXPECT_NEAR(r.p_value(), 0.147232, 1e-6);
}

TEST(NistVectors, CumulativeSumsForwardExample) {
  // Section 2.13.8: eps = 1011010111 -> z = 4, P-value (forward) = 0.4116588.
  const auto r = cumulative_sums(BitStream::from_string("1011010111"));
  ASSERT_EQ(r.p_values.size(), 2u);
  EXPECT_NEAR(r.p_values[0], 0.4116588, 1e-6);
}

TEST(NistVectors, SerialExample) {
  // Section 2.11.8: eps = 0011011101, m = 3 -> P1 = 0.808792, P2 = 0.670320.
  const auto r = serial(BitStream::from_string("0011011101"), 3);
  ASSERT_EQ(r.p_values.size(), 2u);
  EXPECT_NEAR(r.p_values[0], 0.808792, 1e-5);
  EXPECT_NEAR(r.p_values[1], 0.670320, 1e-5);
}

TEST(NistVectors, ApproximateEntropyExample) {
  // Section 2.12.8: eps = 0100110101, m = 3 -> P-value = 0.261961.
  const auto r = approximate_entropy(BitStream::from_string("0100110101"), 3);
  EXPECT_NEAR(r.p_value(), 0.261961, 1e-5);
}

TEST(NistVectors, AperiodicTemplateCountForM9) {
  // The STS ships 148 aperiodic templates of length 9.
  EXPECT_EQ(aperiodic_templates_cached(9).size(), 148u);
}

TEST(NistVectors, AperiodicTemplateCountForM2) {
  // For m = 2 the aperiodic templates are 01 and 10.
  const auto ts = aperiodic_templates_cached(2);
  EXPECT_EQ(ts.size(), 2u);
}

TEST(NistVectors, TemplatesAreActuallyAperiodic) {
  for (const auto& t : aperiodic_templates_cached(5)) {
    // No non-trivial self-overlap.
    for (std::size_t s = 1; s < t.size(); ++s) {
      bool overlaps = true;
      for (std::size_t i = 0; i + s < t.size(); ++i) {
        if (t[i] != t[i + s]) {
          overlaps = false;
          break;
        }
      }
      EXPECT_FALSE(overlaps);
    }
  }
}

}  // namespace
}  // namespace dhtrng::stats::sp800_22
