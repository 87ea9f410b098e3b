// Golden digests of the four statistical suites' full output on two fixed
// seeded streams.  Every field a suite reports — test name, applicable /
// pass flag, the bit pattern of each p-value, pass rate, statistic, p_max
// and h_min, and the detail string — goes into one SHA-256 per stream and
// suite, compared exactly like the generator goldens in
// tests/core/test_determinism_golden.cpp.  A refactor of a counting kernel
// or of the scoring code it feeds that moves any result by one ulp fails
// here.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include "stats/ais31.h"
#include "stats/fips140.h"
#include "stats/sp800_22.h"
#include "stats/sp800_90b.h"
#include "support/bitstream.h"
#include "support/rng.h"
#include "support/sha256.h"

namespace dhtrng::stats {
namespace {

using support::BitStream;

constexpr std::size_t kSp800_22Bits = 1000000;
constexpr std::size_t kSp800_90bBits = 200000;

/// An ideal stream (`ones_percent` = 50) or a biased one, long enough for
/// the full AIS-31 procedure.
BitStream seeded_stream(std::uint64_t seed, unsigned ones_percent) {
  support::SplitMix64 rng(seed);
  const std::size_t n = ais31::required_bits();
  BitStream bits;
  bits.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    bits.push_back(ones_percent == 50 ? (rng.next() & 1) != 0
                                      : rng.next() % 100 < ones_percent);
  }
  return bits;
}

/// Accumulates one field per line: text as is, doubles as their bit
/// pattern, so the digest is exact and platform-independent.
class Digest {
 public:
  Digest& operator<<(const std::string& s) {
    sha_.update(s + "\n");
    return *this;
  }
  Digest& operator<<(bool b) { return *this << std::string(b ? "1" : "0"); }
  Digest& operator<<(double x) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(x)));
    return *this << std::string(hex);
  }
  std::string hex() { return support::Sha256::hex(sha_.finish()); }

 private:
  support::Sha256 sha_;
};

std::string sp800_22_digest(const BitStream& bits) {
  Digest d;
  for (const auto& r : sp800_22::run_all(bits.slice(0, kSp800_22Bits))) {
    d << r.name << r.applicable;
    for (double p : r.p_values) d << p;
  }
  return d.hex();
}

std::string sp800_90b_digest(const BitStream& bits) {
  Digest d;
  for (const auto& r : sp800_90b::run_all(bits.slice(0, kSp800_90bBits))) {
    d << r.name << r.p_max << r.h_min;
  }
  return d.hex();
}

std::string fips140_digest(const BitStream& bits) {
  Digest d;
  for (const auto& r : fips140::run_all(bits.slice(0, fips140::kSampleBits))) {
    d << r.name << r.pass << r.statistic;
  }
  return d.hex();
}

std::string ais31_digest(const BitStream& bits) {
  Digest d;
  for (const auto& r : ais31::run_all(bits)) {
    d << r.name << r.pass << r.pass_rate << r.detail;
  }
  return d.hex();
}

TEST(StatsGolden, IdealStreamSeed1) {
  const BitStream bits = seeded_stream(1, 50);
  EXPECT_EQ(sp800_22_digest(bits),
            "3013440430056403e72d9c6c4fa821d01acf151b3c02b425a1fcd530bad48387");
  EXPECT_EQ(sp800_90b_digest(bits),
            "0b69c8ace75b35b3a4acad12380e016c46e3b390e94c5dfc6aca587cde1cf6d0");
  EXPECT_EQ(fips140_digest(bits),
            "b822f19ff800ba098e461b2ec9b9cab43c0ffafb1af3638c600e702f7ecca81f");
  EXPECT_EQ(ais31_digest(bits),
            "db1037a10a630b9f73a093b260083a53b9d540c9cf258c893b048da4c66a2407");
}

TEST(StatsGolden, BiasedStreamSeed2) {
  const BitStream bits = seeded_stream(2, 52);
  EXPECT_EQ(sp800_22_digest(bits),
            "247a0ece5e98a7b144ff8c59d83960dedde3b25eecacd2ad9b095d2c34b3b7ad");
  EXPECT_EQ(sp800_90b_digest(bits),
            "16b6e7c890864cd4ed2929377bb3b0e17c910760cd2ecbde71db45eff01507de");
  EXPECT_EQ(fips140_digest(bits),
            "d5ff32e920be2c05486882b5056e8e0e5d8633c063b0abb1d27b64f333e5fd64");
  EXPECT_EQ(ais31_digest(bits),
            "c4b3612d3b2927251d086dc39e288a28662332ce7122f8c66105af3ea42aeb78");
}

}  // namespace
}  // namespace dhtrng::stats
