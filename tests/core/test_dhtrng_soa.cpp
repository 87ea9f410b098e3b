// DhTrngSoA — the bitsliced 64-instance bulk-generation backend.
//
// The load-bearing properties:
//  * it serves the bitsliced engine only: NoiseMode::Exact is rejected
//    (DhTrngArray{cores = 64} is the exact-grade 64-lane path);
//  * the engine is deterministic per seed and tier-independent (the
//    scalar and AVX2/AVX-512/NEON step kernels compile the same operation
//    sequence with -ffp-contract=off, so every supported tier must
//    reproduce the scalar tier's words exactly);
//  * the TrngSource surface (next_bit / generate) serves the words in the
//    documented lane-major round-robin order;
//  * restart() re-arms the oscillator phases deterministically;
//  * the reported resources/throughput scale by the 64 lanes.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dhtrng.h"
#include "core/dhtrng_soa.h"
#include "support/simd_noise.h"

using dhtrng::core::DhTrng;
using dhtrng::core::DhTrngConfig;
using dhtrng::core::DhTrngSoA;
using dhtrng::core::DhTrngSoAConfig;
using dhtrng::core::kSoaLanes;
namespace simd = dhtrng::support::simd;

namespace {

DhTrngSoAConfig soa_config(std::uint64_t seed) {
  DhTrngSoAConfig cfg;
  cfg.core.seed = seed;
  return cfg;
}

}  // namespace

TEST(DhTrngSoA, RejectsExactNoiseMode) {
  DhTrngSoAConfig cfg = soa_config(42);
  cfg.noise_mode = dhtrng::noise::NoiseMode::Exact;
  try {
    DhTrngSoA soa(cfg);
    FAIL() << "Exact noise mode was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("DhTrngArray"), std::string::npos)
        << e.what();
  }
}

TEST(DhTrngSoA, FastModeIsDeterministicPerSeed) {
  DhTrngSoA a(soa_config(7)), b(soa_config(7)), c(soa_config(8));
  std::vector<std::uint64_t> wa(64), wb(64), wc(64);
  a.generate_words(wa.data(), wa.size());
  b.generate_words(wb.data(), wb.size());
  c.generate_words(wc.data(), wc.size());
  EXPECT_EQ(wa, wb);
  EXPECT_NE(wa, wc);
}

TEST(DhTrngSoA, FastModeScalarTierMatchesNativeTier) {
  // Every tier the CPU supports (force_tier clamps the others to Scalar)
  // must reproduce the scalar tier's words exactly.
  const auto words_on = [](simd::Tier t) {
    const simd::Tier prev = simd::force_tier(t);
    const bool supported = simd::active_tier() == t;
    std::vector<std::uint64_t> words(128);
    DhTrngSoA soa(soa_config(123));
    soa.generate_words(words.data(), words.size());
    simd::force_tier(prev);
    return supported ? words : std::vector<std::uint64_t>{};
  };
  const auto scalar = words_on(simd::Tier::Scalar);
  for (simd::Tier t :
       {simd::Tier::Avx2, simd::Tier::Avx512, simd::Tier::Neon}) {
    const auto native = words_on(t);
    if (!native.empty()) {
      EXPECT_EQ(native, scalar) << simd::tier_name(t);
    }
  }
}

TEST(DhTrngSoA, NextBitServesWordsLaneMajor) {
  DhTrngSoA bits_source(soa_config(9));
  DhTrngSoA word_source(soa_config(9));
  for (int step = 0; step < 4; ++step) {
    const std::uint64_t word = word_source.next_word();
    for (std::size_t l = 0; l < kSoaLanes; ++l) {
      ASSERT_EQ(bits_source.next_bit(), ((word >> l) & 1u) != 0)
          << "step " << step << " lane " << l;
    }
  }
}

TEST(DhTrngSoA, GenerateMatchesNextBitStream) {
  DhTrngSoA a(soa_config(11)), b(soa_config(11));
  const std::size_t nbits = 3 * kSoaLanes + 17;  // forces a partial word
  const auto stream = a.generate(nbits);
  ASSERT_EQ(stream.size(), nbits);
  for (std::size_t i = 0; i < nbits; ++i) {
    ASSERT_EQ(stream[i], b.next_bit()) << "bit " << i;
  }
  // The buffered partial word keeps serving across calls.
  const auto more = a.generate(kSoaLanes);
  for (std::size_t i = 0; i < kSoaLanes; ++i) {
    ASSERT_EQ(more[i], b.next_bit()) << "bit " << nbits + i;
  }
}

TEST(DhTrngSoA, RestartIsDeterministic) {
  DhTrngSoA a(soa_config(13)), b(soa_config(13));
  std::vector<std::uint64_t> wa(32), wb(32);
  a.generate_words(wa.data(), wa.size());
  b.generate_words(wb.data(), wb.size());
  a.restart();
  b.restart();
  a.generate_words(wa.data(), wa.size());
  b.generate_words(wb.data(), wb.size());
  // Same power-cycle behaviour on both instances...
  EXPECT_EQ(wa, wb);
  // ...and the noise streams are NOT rewound (matching DhTrng::restart),
  // so the post-restart stream differs from the boot stream.
  std::vector<std::uint64_t> boot(32);
  DhTrngSoA fresh(soa_config(13));
  fresh.generate_words(boot.data(), boot.size());
  EXPECT_NE(wa, boot);
}

TEST(DhTrngSoA, FastModeBiasAndMetastableRateAreSane) {
  DhTrngSoA soa(soa_config(17));
  constexpr std::size_t kWords = 4000;
  std::vector<std::uint64_t> words(kWords);
  soa.generate_words(words.data(), kWords);
  std::uint64_t ones = 0;
  for (std::uint64_t w : words) ones += static_cast<std::uint64_t>(
      __builtin_popcountll(w));
  const double bias =
      static_cast<double>(ones) / static_cast<double>(kWords * 64);
  EXPECT_NEAR(bias, 0.5, 0.01);

  // The metastable-capture rate should resemble a scalar instance's over
  // the same horizon (loose band: same mechanism, different noise draws).
  DhTrngConfig scalar_cfg;
  scalar_cfg.seed = 17;
  DhTrng scalar(scalar_cfg);
  for (std::size_t i = 0; i < kWords; ++i) scalar.next_bit();
  EXPECT_GT(soa.metastable_fraction(), 0.5 * scalar.metastable_fraction());
  EXPECT_LT(soa.metastable_fraction(), 2.0 * scalar.metastable_fraction());
}

TEST(DhTrngSoA, ResourcesAndThroughputScaleWithLanes) {
  DhTrngSoA soa(soa_config(1));
  DhTrngConfig scalar_cfg;
  scalar_cfg.seed = 1;
  DhTrng scalar(scalar_cfg);
  const auto soa_res = soa.resources();
  const auto one = scalar.resources();
  EXPECT_EQ(soa_res.luts, one.luts * kSoaLanes);
  EXPECT_EQ(soa_res.dffs, one.dffs * kSoaLanes);
  EXPECT_NEAR(soa.throughput_mbps(), soa.clock_mhz() * kSoaLanes, 1e-9);
  EXPECT_GT(soa.clock_mhz(), 0.0);
}
