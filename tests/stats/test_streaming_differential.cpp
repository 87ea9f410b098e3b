// Differential fuzz: the streaming certification trackers
// (stats/streaming.h) must be bit-for-bit identical to the batch suites
// over the same bits, for EVERY chunking of the stream and EVERY aligned
// merge order.  The batch suites' counting kernels are in turn held to the
// bit-at-a-time oracle (tests/support/stats_oracle.h) by the
// EngineEquivalence and EngineDifferential tests.  All comparisons are
// exact (`==` on doubles): the streaming side keeps integer sufficient
// statistics and replays the batch FP sequence at snapshot time, so any
// ulp of drift is a bug, not noise.
//
// This is the heavyweight lane (labels: slow differential).  The default
// ctest run keeps a smaller smoke version in test_streaming.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "stats/sp800_22.h"
#include "stats/sp800_90b.h"
#include "stats/streaming.h"
#include "support/bitstream.h"
#include "support/rng.h"

namespace dhtrng::stats::streaming {
namespace {

using support::BitStream;

// Same corpus shape as the engine differential: ideal, biased, and
// structured sources, so the passing and the alarming paths of every
// kernel are both exercised (including the runs-test prerequisite branch
// and the igamc saturation region of block frequency).
BitStream make_stream(std::uint64_t seed, std::size_t n) {
  support::SplitMix64 rng(seed);
  BitStream bits;
  bits.reserve(n);
  switch (seed % 5) {
    case 0:  // heavy bias: failure paths
      for (std::size_t i = 0; i < n; ++i)
        bits.push_back((rng.next() % 100) < 80);
      break;
    case 1:  // mild bias: borderline statistics
      for (std::size_t i = 0; i < n; ++i)
        bits.push_back((rng.next() % 100) < 55);
      break;
    case 2:  // periodic with noise: run/transition structure
      for (std::size_t i = 0; i < n; ++i)
        bits.push_back((i % 7 < 3) ^ ((rng.next() & 0xff) < 16));
      break;
    case 3:  // long runs: walk extremes and Markov asymmetry
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

// Feed `bits` into a tracker in chunks of `chunk` bits via feed_word
// (LSB-first packing).  chunk == 0 means one whole-stream byte pass.
SourceTracker feed_chunked(const BitStream& bits, std::size_t chunk,
                           TrackerConfig config) {
  SourceTracker tracker(config);
  if (chunk == 0) {
    const std::vector<std::uint8_t> bytes = bits.to_bytes();
    // to_bytes zero-pads the tail; only feed whole bytes this way.
    const std::size_t whole = bits.size() / 8;
    tracker.feed_bytes(bytes.data(), whole);
    for (std::size_t i = whole * 8; i < bits.size(); ++i) {
      tracker.feed_bit(bits[i]);
    }
    return tracker;
  }
  for (std::size_t i = 0; i < bits.size(); i += chunk) {
    const std::size_t nbits = std::min(chunk, bits.size() - i);
    std::uint64_t w = 0;
    for (std::size_t j = 0; j < nbits; ++j) {
      if (bits[i + j]) w |= std::uint64_t{1} << j;
    }
    tracker.feed_word(w, nbits);
  }
  return tracker;
}

// Exact-equality comparison of every field of two snapshots.
void expect_snapshots_identical(const Snapshot& a, const Snapshot& b) {
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.ones, b.ones);
  EXPECT_EQ(a.runs_v, b.runs_v);
  EXPECT_EQ(a.cusum_fwd_peak, b.cusum_fwd_peak);
  EXPECT_EQ(a.cusum_bwd_peak, b.cusum_bwd_peak);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.block_sum_sq, b.block_sum_sq);
  EXPECT_EQ(a.markov_t11, b.markov_t11);
  EXPECT_EQ(a.markov_t10, b.markov_t10);
  EXPECT_EQ(a.markov_t01, b.markov_t01);
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.frequency_p, b.frequency_p);
  EXPECT_EQ(a.block_frequency_p, b.block_frequency_p);
  EXPECT_EQ(a.runs_p, b.runs_p);
  EXPECT_EQ(a.cusum_fwd_p, b.cusum_fwd_p);
  EXPECT_EQ(a.cusum_bwd_p, b.cusum_bwd_p);
  EXPECT_EQ(a.mcv_h, b.mcv_h);
  EXPECT_EQ(a.markov_h, b.markov_h);
  EXPECT_EQ(a.window_mcv_h_last, b.window_mcv_h_last);
  EXPECT_EQ(a.window_markov_h_last, b.window_markov_h_last);
  EXPECT_EQ(a.window_mcv_h_min, b.window_mcv_h_min);
  EXPECT_EQ(a.window_markov_h_min, b.window_markov_h_min);
  EXPECT_EQ(a.frequency_valid, b.frequency_valid);
  EXPECT_EQ(a.block_frequency_valid, b.block_frequency_valid);
  EXPECT_EQ(a.runs_valid, b.runs_valid);
  EXPECT_EQ(a.cusum_valid, b.cusum_valid);
  EXPECT_EQ(a.mcv_valid, b.mcv_valid);
  EXPECT_EQ(a.markov_valid, b.markov_valid);
}

// Exact-equality comparison against the batch suites.
void expect_matches_oracle(const Snapshot& snap, const BitStream& bits,
                           const TrackerConfig& config) {
  ASSERT_EQ(snap.bits, bits.size());
  EXPECT_EQ(snap.ones, bits.count_ones());
  if (bits.size() >= 1) {
    EXPECT_EQ(snap.frequency_p, sp800_22::frequency(bits).p_values[0]);
    EXPECT_EQ(snap.runs_p, sp800_22::runs(bits).p_values[0]);
  }
  EXPECT_EQ(snap.block_frequency_p,
            sp800_22::block_frequency(bits, config.block_len).p_values[0]);
  const auto cusum = sp800_22::cumulative_sums(bits);
  EXPECT_EQ(snap.cusum_fwd_p, cusum.p_values[0]);
  EXPECT_EQ(snap.cusum_bwd_p, cusum.p_values[1]);
  EXPECT_EQ(snap.mcv_h, sp800_90b::mcv(bits).h_min);
  EXPECT_EQ(snap.markov_h, sp800_90b::markov(bits).h_min);
  const std::size_t windows = bits.size() / config.window_bits;
  ASSERT_EQ(snap.windows, windows);
  if (windows > 0) {
    double mcv_min = 1.0, markov_min = 1.0;
    double mcv_last = 0.0, markov_last = 0.0;
    for (std::size_t w = 0; w < windows; ++w) {
      const BitStream slice =
          bits.slice(w * config.window_bits, config.window_bits);
      mcv_last = sp800_90b::mcv(slice).h_min;
      markov_last = sp800_90b::markov(slice).h_min;
      mcv_min = std::min(mcv_min, mcv_last);
      markov_min = std::min(markov_min, markov_last);
    }
    EXPECT_EQ(snap.window_mcv_h_last, mcv_last);
    EXPECT_EQ(snap.window_markov_h_last, markov_last);
    EXPECT_EQ(snap.window_mcv_h_min, mcv_min);
    EXPECT_EQ(snap.window_markov_h_min, markov_min);
  }
}

TEST(StreamingDifferential, AdversarialChunkingsMatchScalarOracle) {
  // Every chunk schedule must land on the identical snapshot and match
  // the batch suites: 1 bit, 1 byte, primes straddling every block and
  // window boundary, aligned words, and the whole stream at once.
  const TrackerConfig config{.block_len = 128, .window_bits = 1024};
  const std::size_t kChunks[] = {1, 7, 8, 13, 61, 64, 0};  // 0 = whole stream
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    // Sizes staggered so word tails, partial blocks, and partial windows
    // all vary (including exact multiples).
    const std::size_t n = seed % 8 == 0 ? seed * 1024 : 5000 + seed * 997;
    const BitStream bits = make_stream(seed, n);
    SCOPED_TRACE(testing::Message() << "seed=" << seed << " n=" << n);
    const Snapshot reference = feed_chunked(bits, 1, config).snapshot();
    expect_matches_oracle(reference, bits, config);
    for (const std::size_t chunk : kChunks) {
      if (chunk == 1) continue;
      SCOPED_TRACE(testing::Message() << "chunk=" << chunk);
      expect_snapshots_identical(
          reference, feed_chunked(bits, chunk, config).snapshot());
    }
  }
}

TEST(StreamingDifferential, RandomMixedChunkingsMatchScalarOracle) {
  // Random word sizes 1..64 per feed call — the schedule the pool's
  // health path uses, and the nastiest alignment case (byte fast path
  // engages and disengages mid-stream).
  const TrackerConfig config{.block_len = 32, .window_bits = 256};
  for (std::uint64_t seed = 41; seed <= 80; ++seed) {
    const std::size_t n = 3000 + seed * 331;
    const BitStream bits = make_stream(seed, n);
    SCOPED_TRACE(testing::Message() << "seed=" << seed << " n=" << n);
    support::SplitMix64 sched(seed * 7919);
    SourceTracker tracker(config);
    std::size_t i = 0;
    while (i < n) {
      const std::size_t nbits =
          std::min<std::size_t>(1 + (sched.next() % 64), n - i);
      std::uint64_t w = 0;
      for (std::size_t j = 0; j < nbits; ++j) {
        if (bits[i + j]) w |= std::uint64_t{1} << j;
      }
      tracker.feed_word(w, nbits);
      i += nbits;
    }
    expect_matches_oracle(tracker.snapshot(), bits, config);
  }
}

TEST(StreamingDifferential, AlignedMergeOrdersAndAssociativity) {
  // Split each stream into segments at multiples of the alignment grain,
  // then check that (a) merging the per-segment trackers left-to-right,
  // (b) a right-leaning merge tree, and (c) pre-merged pairs all equal
  // the single-tracker feed and the batch suites.
  const TrackerConfig config{.block_len = 64, .window_bits = 512};
  const std::size_t align = 512;
  for (std::uint64_t seed = 81; seed <= 110; ++seed) {
    const std::size_t segments = 2 + seed % 4;
    const std::size_t tail = (seed % 3 == 0) ? 0 : seed % align;
    const std::size_t n = segments * align + tail;
    const BitStream bits = make_stream(seed, n);
    SCOPED_TRACE(testing::Message()
                 << "seed=" << seed << " segments=" << segments
                 << " tail=" << tail);

    std::vector<SourceTracker> parts;
    for (std::size_t s = 0; s < segments; ++s) {
      SourceTracker t(config);
      const BitStream slice = bits.slice(s * align, align);
      const std::vector<std::uint8_t> bytes = slice.to_bytes();
      t.feed_bytes(bytes.data(), bytes.size());
      if (s + 1 == segments && tail > 0) {
        // The final segment also carries the unaligned tail.
        for (std::size_t i = segments * align; i < n; ++i) {
          t.feed_bit(bits[i]);
        }
      }
      parts.push_back(std::move(t));
    }

    const Snapshot reference = feed_chunked(bits, 1, config).snapshot();
    expect_matches_oracle(reference, bits, config);

    // (a) Left fold: ((p0 + p1) + p2) + ...
    SourceTracker left(config);
    for (const SourceTracker& p : parts) left.merge(p);
    expect_snapshots_identical(reference, left.snapshot());

    // (b) Right-leaning tree: p0 + (p1 + (p2 + ...)) — built by merging
    // the last two first.  Every intermediate lhs holds a multiple of
    // `align` bits, so each merge stays on the exact path.
    std::vector<SourceTracker> right = parts;
    while (right.size() > 1) {
      right[right.size() - 2].merge(right.back());
      right.pop_back();
    }
    expect_snapshots_identical(reference, right.front().snapshot());

    // (c) Pairwise reduction (the pool's merge shape for many producers).
    std::vector<SourceTracker> pairs = parts;
    while (pairs.size() > 1) {
      std::vector<SourceTracker> next;
      for (std::size_t i = 0; i + 1 < pairs.size(); i += 2) {
        pairs[i].merge(pairs[i + 1]);
        next.push_back(std::move(pairs[i]));
      }
      if (pairs.size() % 2 == 1) next.push_back(std::move(pairs.back()));
      pairs = std::move(next);
    }
    expect_snapshots_identical(reference, pairs.front().snapshot());
  }
}

TEST(StreamingDifferential, SmallConfigsSweepBoundaries) {
  // Tiny block/window geometries put a boundary inside nearly every byte
  // and word, hammering the finish_block/finish_window seams.
  for (const TrackerConfig config :
       {TrackerConfig{.block_len = 8, .window_bits = 8},
        TrackerConfig{.block_len = 8, .window_bits = 64},
        TrackerConfig{.block_len = 256, .window_bits = 16}}) {
    for (std::uint64_t seed = 111; seed <= 125; ++seed) {
      const std::size_t n = 900 + seed * 53;
      const BitStream bits = make_stream(seed, n);
      SCOPED_TRACE(testing::Message()
                   << "block_len=" << config.block_len
                   << " window_bits=" << config.window_bits << " seed="
                   << seed);
      const Snapshot by_bit = feed_chunked(bits, 1, config).snapshot();
      expect_matches_oracle(by_bit, bits, config);
      expect_snapshots_identical(by_bit,
                                 feed_chunked(bits, 0, config).snapshot());
      expect_snapshots_identical(by_bit,
                                 feed_chunked(bits, 64, config).snapshot());
    }
  }
}

}  // namespace
}  // namespace dhtrng::stats::streaming
