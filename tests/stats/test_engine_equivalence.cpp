// Smoke version of the kernel differential: a handful of streams on which
// every statistical kernel (src/stats/kernels.h) must equal its
// bit-at-a-time oracle (tests/support/stats_oracle.h) exactly, in the
// default ctest lane.  The full >=100-stream fuzz corpus lives in
// test_engine_differential.cpp (label: slow).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "stats/fips140.h"
#include "stats/health.h"
#include "support/bitstream.h"
#include "support/rng.h"
#include "support/stats_oracle.h"

namespace dhtrng::stats {
namespace {

using support::BitStream;

BitStream make_stream(std::uint64_t seed, std::size_t n) {
  support::SplitMix64 rng(seed);
  BitStream bits;
  bits.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (seed % 3) {
      case 0: bits.push_back((rng.next() % 100) < 55); break;
      case 1: bits.push_back(rng.next() & 1); break;
      default: bits.push_back((i % 7 < 3) ^ ((rng.next() & 0xff) < 16)); break;
    }
  }
  return bits;
}

/// Every kernel of `suite` equals its oracle on `bits`, exactly.
void expect_kernels_match_oracle(const BitStream& bits,
                                 const std::string& suite,
                                 std::uint64_t seed) {
  std::size_t compared = 0;
  for (const oracle::KernelCase& c : oracle::kernel_cases()) {
    if (c.suite != suite) continue;
    EXPECT_EQ(c.kernel(bits), c.oracle(bits))
        << "seed=" << seed << " kernel=" << c.name;
    ++compared;
  }
  EXPECT_GT(compared, 0u) << "no kernels for suite " << suite;
}

TEST(EngineEquivalence, Sp800_22Exact) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expect_kernels_match_oracle(make_stream(seed, 30000 + seed * 517),
                                "sp800_22", seed);
  }
}

TEST(EngineEquivalence, Sp800_90bExact) {
  expect_kernels_match_oracle(make_stream(1, 30000), "sp800_90b", 1);
}

TEST(EngineEquivalence, Fips140Exact) {
  // The FIPS 140-2 and AIS-31 kernels on one 20000-bit sample each.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expect_kernels_match_oracle(make_stream(seed, fips140::kSampleBits),
                                "ais31_fips140", seed);
  }
}

TEST(EngineEquivalence, HealthFeedWordMatchesPerBitFeeds) {
  // feed_word against the per-sample RCT/APT oracle.
  support::SplitMix64 rng(7);
  HealthMonitor batch(0.9);
  oracle::HealthFeeds serial{oracle::RepetitionCount(batch.rct().cutoff()),
                             oracle::AdaptiveProportion(batch.apt().cutoff())};
  const std::size_t n = 8192;
  std::size_t i = 0;
  while (i < n) {
    const std::size_t nbits =
        std::min<std::size_t>(1 + (rng.next() % 64), n - i);
    std::uint64_t word = 0;
    bool serial_ok = true;
    for (std::size_t j = 0; j < nbits; ++j) {
      const bool bit = (rng.next() % 100) < 62;  // biased enough to alarm
      if (bit) word |= std::uint64_t{1} << j;
      serial_ok = serial.feed(bit) && serial_ok;
    }
    ASSERT_EQ(serial_ok, batch.feed_word(word, nbits)) << "at bit " << i;
    ASSERT_EQ(serial.healthy(), batch.healthy());
    i += nbits;
  }
}

}  // namespace
}  // namespace dhtrng::stats
