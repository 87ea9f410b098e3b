#include "core/drbg.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/dhtrng.h"
#include "stats/correlation.h"
#include "stats/sp800_90b.h"
#include "support/bitstream.h"

namespace dhtrng::core {
namespace {

using Bytes = std::vector<std::uint8_t>;

Bytes trng_bytes(DhTrng& trng, std::size_t n) {
  return trng.generate(8 * n).to_bytes();
}

/// Instantiate from a DH-TRNG the way a caller gathers the seed: entropy
/// input first, then the nonce, both MSB-first source bytes.
HmacDrbg seeded_from(DhTrng& trng, HmacDrbgConfig config = {},
                     HmacDrbg::Bytes personalization = {}) {
  const Bytes entropy = trng_bytes(trng, HmacDrbg::kEntropyInputBytes);
  const Bytes nonce = trng_bytes(trng, HmacDrbg::kNonceBytes);
  return HmacDrbg(entropy, nonce, config, personalization);
}

Bytes iota_bytes(std::size_t n, std::uint8_t first) {
  Bytes v(n);
  std::iota(v.begin(), v.end(), first);
  return v;
}

std::string hex(const Bytes& bytes) {
  std::string out;
  char buf[3];
  for (const std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

TEST(HmacDrbg, KnownAnswer) {
  // SP 800-90A 10.1.2 over HMAC-SHA256 with the service's personalization;
  // an independent hmac/hashlib implementation gives the same bytes.
  constexpr std::string_view kPers = "dhtrng-entropy-service";
  HmacDrbg drbg(iota_bytes(48, 0x00), iota_bytes(16, 0x30), {},
                HmacDrbg::Bytes(
                    reinterpret_cast<const std::uint8_t*>(kPers.data()),
                    kPers.size()));
  EXPECT_EQ(hex(drbg.generate(64)),
            "029d365de47c835a8aae71dcf799dce174d4f25f74081ae5af22e41b27efb2a0"
            "81731eb112ab143d1885334a7faa5ee9d417e7eaa950eaf535c4d1b54a0021b5");
  drbg.reseed(iota_bytes(48, 0x40));
  EXPECT_EQ(hex(drbg.generate(64)),
            "5178b31511ef149521fe3d060ffbb0159b0e71dedf7bee792ac6ffa24b2c82e2"
            "0238c7c3014f5242936c696c24132e2d99b66c00a119d3130eb896a24e9908f8");
}

TEST(HmacDrbg, DeterministicGivenSameEntropy) {
  DhTrng a({.seed = 1});
  DhTrng b({.seed = 1});
  HmacDrbg da = seeded_from(a), db = seeded_from(b);
  EXPECT_EQ(da.generate(64), db.generate(64));
}

TEST(HmacDrbg, DifferentEntropyDiverges) {
  DhTrng a({.seed = 1});
  DhTrng b({.seed = 2});
  HmacDrbg da = seeded_from(a), db = seeded_from(b);
  EXPECT_NE(da.generate(64), db.generate(64));
}

TEST(HmacDrbg, PersonalizationSeparatesStreams) {
  DhTrng a({.seed = 3});
  DhTrng b({.seed = 3});
  const Bytes pa{'A'}, pb{'B'};
  HmacDrbg da = seeded_from(a, {}, pa);
  HmacDrbg db = seeded_from(b, {}, pb);
  EXPECT_NE(da.generate(64), db.generate(64));
}

TEST(HmacDrbg, OutputIsStatisticallySound) {
  DhTrng trng({.seed = 4});
  HmacDrbg drbg = seeded_from(trng);
  const auto bytes = drbg.generate(50000);
  const auto bits = support::BitStream::from_bytes(bytes);
  EXPECT_LT(stats::bias_percent(bits), 1.0);
  EXPECT_GT(stats::sp800_90b::mcv(bits).h_min, 0.98);
}

TEST(HmacDrbg, AutoReseedFiresAtInterval) {
  // After `reseed_interval` generate calls the DRBG refuses (SP 800-90A
  // 9.3.1 "reseed required") until the caller supplies fresh entropy.
  DhTrng trng({.seed = 5});
  HmacDrbg drbg = seeded_from(trng, {.reseed_interval = 10});
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(drbg.reseed_required()) << i;
    drbg.generate(16);
  }
  EXPECT_TRUE(drbg.reseed_required());
  EXPECT_THROW(drbg.generate(16), std::logic_error);
  drbg.reseed(trng_bytes(trng, HmacDrbg::kEntropyInputBytes));
  EXPECT_FALSE(drbg.reseed_required());
  EXPECT_EQ(drbg.generate(16).size(), 16u);
  EXPECT_THROW(HmacDrbg(Bytes(48), Bytes(16), {.reseed_interval = 0}),
               std::invalid_argument);
}

TEST(HmacDrbg, ExplicitReseedChangesStream) {
  DhTrng a({.seed = 6});
  DhTrng b({.seed = 6});
  HmacDrbg da = seeded_from(a), db = seeded_from(b);
  (void)da.generate(32);
  (void)db.generate(32);
  // Fresh entropy -> streams diverge.
  da.reseed(trng_bytes(a, HmacDrbg::kEntropyInputBytes));
  EXPECT_NE(da.generate(32), db.generate(32));
}

TEST(HmacDrbg, AdditionalInputPerturbs) {
  DhTrng a({.seed = 7});
  DhTrng b({.seed = 7});
  HmacDrbg da = seeded_from(a), db = seeded_from(b);
  std::vector<std::uint8_t> out_a(32), out_b(32);
  const Bytes xa{'x'}, xb{'y'};
  da.generate(out_a.data(), 32, xa);
  db.generate(out_b.data(), 32, xb);
  EXPECT_NE(out_a, out_b);
}

TEST(HmacDrbg, BacktrackResistanceViaUpdate) {
  // Every generate call ends in HMAC_DRBG_Update, so the state rolls
  // forward: the second block never repeats the first, and a twin seeded
  // from the same entropy reproduces both blocks in order.
  DhTrng a({.seed = 14});
  DhTrng b({.seed = 14});
  HmacDrbg da = seeded_from(a), db = seeded_from(b);
  const auto first = da.generate(32);
  const auto second = da.generate(32);
  EXPECT_NE(first, second);
  EXPECT_EQ(db.generate(32), first);
  EXPECT_EQ(db.generate(32), second);
}

TEST(HmacDrbg, LargeRequestSpansManyHmacBlocks) {
  DhTrng trng({.seed = 8});
  HmacDrbg drbg = seeded_from(trng);
  const auto out = drbg.generate(1000);  // 32-byte blocks -> 32 iterations
  EXPECT_EQ(out.size(), 1000u);
  // No repeated 32-byte block (V never cycles in 32 steps).
  for (std::size_t i = 32; i + 32 <= out.size(); i += 32) {
    EXPECT_FALSE(std::equal(out.begin(), out.begin() + 32,
                            out.begin() + static_cast<long>(i)));
  }
}

}  // namespace
}  // namespace dhtrng::core
