#include "core/drbg.h"

#include <gtest/gtest.h>

#include "core/dhtrng.h"
#include "stats/correlation.h"
#include "stats/sp800_90b.h"
#include "support/bitstream.h"

namespace dhtrng::core {
namespace {

TEST(HmacDrbg, DeterministicGivenSameEntropy) {
  DhTrng a({.seed = 1});
  DhTrng b({.seed = 1});
  HmacDrbg da(a), db(b);
  EXPECT_EQ(da.generate(64), db.generate(64));
}

TEST(HmacDrbg, DifferentEntropyDiverges) {
  DhTrng a({.seed = 1});
  DhTrng b({.seed = 2});
  HmacDrbg da(a), db(b);
  EXPECT_NE(da.generate(64), db.generate(64));
}

TEST(HmacDrbg, PersonalizationSeparatesStreams) {
  DhTrng a({.seed = 3});
  DhTrng b({.seed = 3});
  HmacDrbg da(a, {}, {'A'});
  HmacDrbg db(b, {}, {'B'});
  EXPECT_NE(da.generate(64), db.generate(64));
}

TEST(HmacDrbg, OutputIsStatisticallySound) {
  DhTrng trng({.seed = 4});
  HmacDrbg drbg(trng);
  const auto bytes = drbg.generate(50000);
  const auto bits = support::BitStream::from_bytes(bytes);
  EXPECT_LT(stats::bias_percent(bits), 1.0);
  EXPECT_GT(stats::sp800_90b::mcv(bits).h_min, 0.98);
}

TEST(HmacDrbg, AutoReseedFiresAtInterval) {
  DhTrng trng({.seed = 5});
  HmacDrbgConfig cfg;
  cfg.reseed_interval = 10;
  HmacDrbg drbg(trng, cfg);
  for (int i = 0; i < 25; ++i) drbg.generate(16);
  EXPECT_GE(drbg.reseed_count(), 2u);
}

TEST(HmacDrbg, ExplicitReseedChangesStream) {
  DhTrng a({.seed = 6});
  DhTrng b({.seed = 6});
  HmacDrbg da(a), db(b);
  (void)da.generate(32);
  (void)db.generate(32);
  da.reseed();  // pulls fresh entropy -> streams diverge
  EXPECT_NE(da.generate(32), db.generate(32));
}

TEST(HmacDrbg, AdditionalInputPerturbs) {
  DhTrng a({.seed = 7});
  DhTrng b({.seed = 7});
  HmacDrbg da(a), db(b);
  std::vector<std::uint8_t> out_a(32), out_b(32);
  da.generate(out_a.data(), 32, {'x'});
  db.generate(out_b.data(), 32, {'y'});
  EXPECT_NE(out_a, out_b);
}

TEST(HmacDrbg, BacktrackResistanceViaUpdate) {
  // Every generate call ends in HMAC_DRBG_Update, so the state rolls
  // forward: the second block never repeats the first, and a twin seeded
  // from the same entropy reproduces both blocks in order.
  DhTrng a({.seed = 14});
  DhTrng b({.seed = 14});
  HmacDrbg da(a), db(b);
  const auto first = da.generate(32);
  const auto second = da.generate(32);
  EXPECT_NE(first, second);
  EXPECT_EQ(db.generate(32), first);
  EXPECT_EQ(db.generate(32), second);
}

TEST(HmacDrbg, LargeRequestSpansManyHmacBlocks) {
  DhTrng trng({.seed = 8});
  HmacDrbg drbg(trng);
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
