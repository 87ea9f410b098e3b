// Differential fuzz: every statistical kernel (src/stats/kernels.h) must be
// bit-for-bit identical to its bit-at-a-time oracle
// (tests/support/stats_oracle.h).  Every comparison below is exact (`==`
// on integers and on the bit patterns of doubles): the kernels are
// restricted to transformations that preserve the exact FP operation
// sequence, so any ulp of drift is a bug, not noise.
//
// This is the heavyweight lane (label: slow).  The default ctest run keeps
// a smaller smoke version in test_engine_equivalence.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/ais31.h"
#include "stats/health.h"
#include "support/bitstream.h"
#include "support/rng.h"
#include "support/stats_oracle.h"

namespace dhtrng::stats {
namespace {

using support::BitStream;

// Streams the fuzz corpus cycles through: ideal, biased, and structured
// sources, so both the "everything passes" and the "alarms fire" paths of
// each kernel are exercised.
BitStream make_stream(std::uint64_t seed, std::size_t n) {
  support::SplitMix64 rng(seed);
  BitStream bits;
  bits.reserve(n);
  switch (seed % 5) {
    case 0:  // heavy bias: failure paths (saturating counters, alarms)
      for (std::size_t i = 0; i < n; ++i)
        bits.push_back((rng.next() % 100) < 80);
      break;
    case 1:  // mild bias: borderline statistics
      for (std::size_t i = 0; i < n; ++i)
        bits.push_back((rng.next() % 100) < 55);
      break;
    case 2:  // periodic with noise: template/run/rank structure
      for (std::size_t i = 0; i < n; ++i)
        bits.push_back((i % 7 < 3) ^ ((rng.next() & 0xff) < 16));
      break;
    case 3:  // long runs: run-length and repetition kernels
      for (std::size_t i = 0; i < n; ++i) {
        static_cast<void>(rng.next());
        bits.push_back((i / (1 + seed % 13)) & 1);
      }
      break;
    default:  // ideal
      for (std::size_t i = 0; i < n; ++i) bits.push_back(rng.next() & 1);
      break;
  }
  return bits;
}

void expect_kernels_match_oracle(const BitStream& bits,
                                 const std::string& suite,
                                 std::uint64_t seed) {
  std::size_t compared = 0;
  for (const oracle::KernelCase& c : oracle::kernel_cases()) {
    if (c.suite != suite) continue;
    // Exact equality on purpose; see the file comment.
    EXPECT_EQ(c.kernel(bits), c.oracle(bits))
        << "seed=" << seed << " kernel=" << c.name;
    ++compared;
  }
  EXPECT_GT(compared, 0u) << "no kernels for suite " << suite;
}

TEST(EngineDifferential, Sp800_22ExactOnFuzzCorpus) {
  // >= 100 streams, sizes staggered so block remainders, word tails, and
  // applicability thresholds all vary.
  for (std::uint64_t seed = 1; seed <= 104; ++seed) {
    const std::size_t n = 20000 + seed * 773;  // 20.8k .. 100.4k bits
    expect_kernels_match_oracle(make_stream(seed, n), "sp800_22", seed);
  }
}

TEST(EngineDifferential, Sp800_90bExactEstimators) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    expect_kernels_match_oracle(make_stream(seed, 40000 + seed * 1009),
                                "sp800_90b", seed);
  }
}

TEST(EngineDifferential, Ais31AndFips140Exact) {
  // Streams as long as the full AIS-31 procedure, so the 48-bit T0 blocks
  // number well past the 2^16 the procedure uses.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    expect_kernels_match_oracle(make_stream(seed + 10, ais31::required_bits()),
                                "ais31_fips140", seed);
  }
}

TEST(EngineDifferential, HealthFeedWordMatchesPerBitFeeds) {
  // feed_word must reproduce the per-sample RCT/APT oracle exactly: same
  // return values, same alarm points, same frozen post-alarm state — across
  // word sizes from 1 to 64 chosen at random.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    support::SplitMix64 rng(seed * 977);
    std::vector<bool> stream;
    const std::size_t n = 20000;
    stream.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      switch (seed % 4) {
        case 0: stream.push_back((rng.next() % 100) < 85); break;
        case 1: stream.push_back(rng.next() & 1); break;
        case 2: stream.push_back(i < 500 || (rng.next() & 1)); break;
        default: stream.push_back((rng.next() % 100) < 60); break;
      }
    }
    HealthMonitor batch(0.9);
    oracle::HealthFeeds serial{
        oracle::RepetitionCount(batch.rct().cutoff()),
        oracle::AdaptiveProportion(batch.apt().cutoff())};
    std::size_t i = 0;
    while (i < n) {
      const std::size_t nbits =
          std::min<std::size_t>(1 + (rng.next() % 64), n - i);
      std::uint64_t word = 0;
      bool serial_ok = true;
      for (std::size_t j = 0; j < nbits; ++j) {
        if (stream[i + j]) word |= std::uint64_t{1} << j;
        serial_ok = serial.feed(stream[i + j]) && serial_ok;
      }
      const bool batch_ok = batch.feed_word(word, nbits);
      ASSERT_EQ(serial_ok, batch_ok) << "seed=" << seed << " at bit " << i;
      ASSERT_EQ(serial.healthy(), batch.healthy()) << "seed=" << seed;
      ASSERT_EQ(serial.rct.alarmed(), batch.rct().alarmed())
          << "seed=" << seed;
      ASSERT_EQ(serial.apt.alarmed(), batch.apt().alarmed())
          << "seed=" << seed;
      i += nbits;
    }
  }
}

}  // namespace
}  // namespace dhtrng::stats
