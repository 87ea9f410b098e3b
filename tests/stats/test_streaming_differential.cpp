// Differential fuzz: the streaming certification trackers
// (stats/streaming.h) must be bit-for-bit identical to the batch suites
// over the same bits, for EVERY byte chunking of the stream and EVERY
// aligned merge order.  The batch suites' counting kernels are in turn
// held to the bit-at-a-time oracle (tests/support/stats_oracle.h) by the
// EngineEquivalence and EngineDifferential tests.  All comparisons are
// exact (`==` on doubles): the streaming side keeps integer sufficient
// statistics and scores them with the batch suites' own scorers
// (stats/scores.h), so any ulp of drift is a counting bug, not noise.
//
// Label: differential (it runs in the default lane).  test_streaming.cpp
// holds the edge cases and the known-answer snapshots.
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

// Feed `bits` (whole bytes) into a tracker in chunks of `chunk` bytes.
// chunk == 0 means the whole stream in one call.
SourceTracker feed_chunked(const BitStream& bits, std::size_t chunk,
                           TrackerConfig config) {
  EXPECT_EQ(bits.size() % 8, 0u);
  const std::vector<std::uint8_t> bytes = bits.to_bytes();
  if (chunk == 0) chunk = bytes.size();
  SourceTracker tracker(config);
  for (std::size_t i = 0; i < bytes.size(); i += chunk) {
    tracker.feed_bytes(bytes.data() + i, std::min(chunk, bytes.size() - i));
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
  // Every byte-chunk schedule must land on the identical snapshot and
  // match the batch suites: 1 byte, odd sizes and primes straddling every
  // block and window boundary, and the whole stream at once.
  const TrackerConfig config{.block_len = 128, .window_bits = 1024};
  const std::size_t kChunks[] = {1, 3, 7, 13, 61, 0};  // 0 = whole stream
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    // Whole-byte sizes staggered so partial blocks and partial windows
    // vary (including exact multiples).
    const std::size_t n =
        seed % 8 == 0 ? seed * 1024 : (5000 + seed * 997) / 8 * 8;
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
  // Random chunk sizes of 1..64 bytes per feed call, so feed edges land
  // anywhere relative to block and window boundaries.
  const TrackerConfig config{.block_len = 32, .window_bits = 256};
  for (std::uint64_t seed = 41; seed <= 80; ++seed) {
    const std::size_t n = (3000 + seed * 331) / 8 * 8;
    const BitStream bits = make_stream(seed, n);
    SCOPED_TRACE(testing::Message() << "seed=" << seed << " n=" << n);
    const std::vector<std::uint8_t> bytes = bits.to_bytes();
    support::SplitMix64 sched(seed * 7919);
    SourceTracker tracker(config);
    std::size_t i = 0;
    while (i < bytes.size()) {
      const std::size_t len =
          std::min<std::size_t>(1 + (sched.next() % 64), bytes.size() - i);
      tracker.feed_bytes(bytes.data() + i, len);
      i += len;
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
    const std::size_t tail = (seed % 3 == 0) ? 0 : seed % align / 8 * 8;
    const std::size_t n = segments * align + tail;
    const BitStream bits = make_stream(seed, n);
    SCOPED_TRACE(testing::Message()
                 << "seed=" << seed << " segments=" << segments
                 << " tail=" << tail);

    // The final segment also carries the unaligned tail.
    std::vector<SourceTracker> parts;
    for (std::size_t s = 0; s < segments; ++s) {
      const std::size_t len = s + 1 == segments ? align + tail : align;
      parts.push_back(feed_chunked(bits.slice(s * align, len), 0, config));
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
  // Tiny block/window geometries put a boundary at nearly every byte,
  // hammering the finish_block/finish_window seams.
  for (const TrackerConfig config :
       {TrackerConfig{.block_len = 8, .window_bits = 8},
        TrackerConfig{.block_len = 8, .window_bits = 64},
        TrackerConfig{.block_len = 256, .window_bits = 16}}) {
    for (std::uint64_t seed = 111; seed <= 125; ++seed) {
      const std::size_t n = (900 + seed * 53) / 8 * 8;
      const BitStream bits = make_stream(seed, n);
      SCOPED_TRACE(testing::Message()
                   << "block_len=" << config.block_len
                   << " window_bits=" << config.window_bits << " seed="
                   << seed);
      const Snapshot by_byte = feed_chunked(bits, 1, config).snapshot();
      expect_matches_oracle(by_byte, bits, config);
      expect_snapshots_identical(by_byte,
                                 feed_chunked(bits, 0, config).snapshot());
      expect_snapshots_identical(by_byte,
                                 feed_chunked(bits, 8, config).snapshot());
    }
  }
}

}  // namespace
}  // namespace dhtrng::stats::streaming
