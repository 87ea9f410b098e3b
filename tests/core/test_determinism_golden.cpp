// Golden known-answer vectors pinning the seed -> bitstream mapping of
// every generator in the library.  The determinism contract
// (docs/architecture.md) says identical (config, seed) pairs reproduce
// identical bitstreams on any platform across refactors — these vectors
// make a silent break of that contract a test failure.
#include <gtest/gtest.h>

#include <string>

#include "core/baselines/coso_trng.h"
#include "core/baselines/latch_trng.h"
#include "core/baselines/msf_ro_trng.h"
#include "core/baselines/tero_trng.h"
#include "core/baselines/xor_ro_trng.h"
#include "core/dhtrng.h"
#include "core/dhtrng_array.h"
#include "core/dhtrng_soa.h"
#include "core/hybrid_array.h"
#include "core/zoo/hbn_trng.h"
#include "core/zoo/klein_trng.h"
#include "core/zoo/neo_trng.h"

namespace dhtrng::core {
namespace {

std::string first_256_bits_hex(TrngSource& src) {
  std::string hex;
  for (std::uint8_t b : src.generate(256).to_bytes()) {
    static const char* digits = "0123456789abcdef";
    hex += digits[b >> 4];
    hex += digits[b & 0xf];
  }
  return hex;
}

TEST(DeterminismGolden, DhTrngFastBackend) {
  DhTrng trng({.seed = 42});
  EXPECT_EQ(first_256_bits_hex(trng),
            "92914a14c83680fc37e1237f2fd0d19dcfe4b2f9bdb2b64b65337044e6625356");
}

TEST(DeterminismGolden, DhTrngGateLevelBackend) {
  DhTrng trng({.seed = 42, .backend = Backend::GateLevel});
  EXPECT_EQ(first_256_bits_hex(trng),
            "220508831913691b26c2b0a7e08b090cb228f766cbea6e10a137a4bb17b60b4a");
}

TEST(DeterminismGolden, XorRoBaseline) {
  XorRoTrng trng({.seed = 42});
  EXPECT_EQ(first_256_bits_hex(trng),
            "39524851d919ad7a68cfa807d4467fa453beb1b93943aff7da421f7cd21c6808");
}

TEST(DeterminismGolden, MsfRoBaseline) {
  MsfRoTrng trng({.seed = 42});
  EXPECT_EQ(first_256_bits_hex(trng),
            "49933266cd993664cdb3266cd9b33664cc99b3664cd9b2664d99b3366cd9b366");
}

TEST(DeterminismGolden, CosoBaseline) {
  CosoTrng trng({.seed = 42});
  EXPECT_EQ(first_256_bits_hex(trng),
            "b2e5d1e2e1d1e0e9f160e9f064f9b074f8b27cd9327cd9366c99364c1b3e4c1b");
}

TEST(DeterminismGolden, LatchBaseline) {
  LatchTrng trng({.seed = 42});
  EXPECT_EQ(first_256_bits_hex(trng),
            "33551d8e67e48052d372af88373005ff5d894ccf588288845ada7630bfd674fe");
}

TEST(DeterminismGolden, TeroBaseline) {
  TeroTrng trng({.seed = 42});
  EXPECT_EQ(first_256_bits_hex(trng),
            "6d09b5ef668039d096c7edca845be83d13772624e47f35c5735549f19e1641b6");
}

TEST(DeterminismGolden, DhTrngArrayInterleaved) {
  DhTrngArray array({.core = {.seed = 42}, .cores = 4});
  EXPECT_EQ(first_256_bits_hex(array),
            "6b565118be1fa8bd41392dacc996f25b8034c02862698801bae6b3ce99184d3e");
}

TEST(DeterminismGolden, HybridArray) {
  HybridArrayTrng trng({.seed = 42});
  EXPECT_EQ(first_256_bits_hex(trng),
            "00ce2c58122d6232ea5a1492c7d870a1471f93f0bba14258a68c662b8b10d062");
}

TEST(DeterminismGolden, NeoFastBackend) {
  NeoTrng trng({.seed = 42});
  EXPECT_EQ(first_256_bits_hex(trng),
            "751a3e559dd302789ed7ac56fb4c2d8bc675b0587496cbda836b99e82ecbb0a3");
}

TEST(DeterminismGolden, KleinFastBackend) {
  KleinTrng trng({.seed = 42});
  EXPECT_EQ(first_256_bits_hex(trng),
            "6c40a186c378ee93de822ad780fb12f01f5557abaadaa0219ea7adc495ca4e84");
}

TEST(DeterminismGolden, HbnFastBackend) {
  HbnTrng trng({.seed = 42});
  EXPECT_EQ(first_256_bits_hex(trng),
            "38e7c5a1984cb57747ab6209cc2680f026c2752858c7e09c0f825f7e18734c02");
}

// Gate-level streams after two restarts: pins the restart-noise
// derivation (a power cycle re-draws the simulator's noise from the seed
// and the restart count) for every gate-level source, in both noise modes.
std::string third_segment_hex(TrngSource& src) {
  src.generate(256);
  src.restart();
  src.generate(256);
  src.restart();
  return first_256_bits_hex(src);
}

TEST(DeterminismGolden, DhTrngGateLevelAfterTwoRestarts) {
  DhTrng exact({.seed = 42, .backend = Backend::GateLevel});
  EXPECT_EQ(third_segment_hex(exact),
            "1691d5b6550367bc9c60d8ca6b4477af528c4053bb485a0db796fe0a92c6c456");
  DhTrng fast({.seed = 42,
               .backend = Backend::GateLevel,
               .noise_mode = noise::NoiseMode::Fast});
  EXPECT_EQ(third_segment_hex(fast),
            "17e0475062c376c9a393b1a188059fdcc2b043ea75b9635a3f45ef05e616416e");
}

TEST(DeterminismGolden, NeoGateLevelAfterTwoRestarts) {
  NeoTrng exact({.seed = 42, .backend = Backend::GateLevel});
  EXPECT_EQ(third_segment_hex(exact),
            "5f9f81998740770bacb90dc04a3352668a900192f79ae1d15baefbae188d5226");
  NeoTrng fast({.seed = 42,
                .backend = Backend::GateLevel,
                .noise_mode = noise::NoiseMode::Fast});
  EXPECT_EQ(third_segment_hex(fast),
            "71377ac3e68e6b747d5a864993944be6bd9167cc00f9b38e13434f0cada4691d");
}

TEST(DeterminismGolden, KleinGateLevelAfterTwoRestarts) {
  KleinTrng exact({.seed = 42, .backend = Backend::GateLevel});
  EXPECT_EQ(third_segment_hex(exact),
            "01e0b2924267b41f77035c6a80d2e56412d0010839e853857a83fc0e8a5bcf86");
  KleinTrng fast({.seed = 42,
                  .backend = Backend::GateLevel,
                  .noise_mode = noise::NoiseMode::Fast});
  EXPECT_EQ(third_segment_hex(fast),
            "0174d2e7b8db5aa1d44fcfd420f13d07c0f383ce72fb0ed6570cf10cebb7f762");
}

TEST(DeterminismGolden, HbnGateLevelAfterTwoRestarts) {
  HbnTrng exact({.seed = 42, .backend = Backend::GateLevel});
  EXPECT_EQ(third_segment_hex(exact),
            "055a80d99a4fb83adf1420bf3ec79d2e51e77e60e7ef793fb5abbd721fc59447");
  HbnTrng fast({.seed = 42,
                .backend = Backend::GateLevel,
                .noise_mode = noise::NoiseMode::Fast});
  EXPECT_EQ(third_segment_hex(fast),
            "01cfe29618e2332f42beeda0ad538c53ec0dbe592f3d8b95abf11e1b913ee2bd");
}

// The bitsliced bulk engine the service's producers run: 256 bits, then
// 256 more after one power cycle (phases back to power-on, noise streams
// running on).
TEST(DeterminismGolden, DhTrngSoAFastEngine) {
  DhTrngSoA trng({.core = {.seed = 42}});
  EXPECT_EQ(first_256_bits_hex(trng),
            "60fa63627bad079f985c8e2611989d61f6ebf15d60c2e697025a6b95a590d12e");
  trng.restart();
  EXPECT_EQ(first_256_bits_hex(trng),
            "49baa6c69bde72bdc97b7b60de388138fac3e55e0ff3234430344fc8981eaf9e");
}

TEST(DeterminismGolden, SameSeedSameStreamTwice) {
  DhTrng a({.seed = 7});
  DhTrng b({.seed = 7});
  EXPECT_EQ(a.generate(4096), b.generate(4096));
}

}  // namespace
}  // namespace dhtrng::core
