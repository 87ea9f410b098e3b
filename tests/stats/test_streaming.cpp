// Unit tests for the streaming certification trackers
// (stats/streaming.h): edge-case tail semantics (empty, one byte, block
// and window boundaries ±8 bits), byte-feed and merge agreement, the
// MSB-first byte packing, merge alignment rules, threshold behaviour, and
// known-answer snapshots pinned on the golden seed-42 DhTrng stream (the
// same stream the determinism-golden vectors anchor).  The chunking/merge
// fuzz lives in test_streaming_differential.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/dhtrng.h"
#include "stats/sp800_22.h"
#include "stats/sp800_90b.h"
#include "stats/streaming.h"
#include "support/bitstream.h"
#include "support/rng.h"

namespace dhtrng::stats::streaming {
namespace {

using support::BitStream;

BitStream random_stream(std::uint64_t seed, std::size_t n) {
  support::SplitMix64 rng(seed);
  BitStream bits;
  bits.reserve(n);
  for (std::size_t i = 0; i < n; ++i) bits.push_back(rng.next() & 1);
  return bits;
}

/// A tracker fed `bits` (whole bytes) one byte per feed_bytes call.
SourceTracker tracker_of(const BitStream& bits, TrackerConfig config = {}) {
  EXPECT_EQ(bits.size() % 8, 0u);
  SourceTracker tracker(config);
  for (const std::uint8_t byte : bits.to_bytes()) tracker.feed_bytes(&byte, 1);
  return tracker;
}

/// The correctness contract: every snapshot statistic equals the batch
/// suite over the same bits, bit-for-bit.  Its counting kernels equal the
/// bit-at-a-time oracle (test_engine_equivalence.cpp), so this also pins
/// the trackers to the oracle.
void expect_matches_batch(const Snapshot& snap, const BitStream& bits) {
  ASSERT_EQ(snap.bits, bits.size());
  EXPECT_EQ(snap.ones, bits.count_ones());
  if (bits.size() >= 1) {
    EXPECT_TRUE(snap.frequency_valid);
    EXPECT_EQ(snap.frequency_p, sp800_22::frequency(bits).p_values[0]);
    EXPECT_EQ(snap.runs_p, sp800_22::runs(bits).p_values[0]);
    const auto cusum = sp800_22::cumulative_sums(bits);
    EXPECT_EQ(snap.cusum_fwd_p, cusum.p_values[0]);
    EXPECT_EQ(snap.cusum_bwd_p, cusum.p_values[1]);
  } else {
    EXPECT_FALSE(snap.frequency_valid);
    EXPECT_EQ(snap.frequency_p, 1.0);
    EXPECT_EQ(snap.runs_p, 1.0);
  }
  EXPECT_EQ(snap.block_frequency_p,
            sp800_22::block_frequency(bits, snap.block_len).p_values[0]);
  EXPECT_EQ(snap.mcv_h, sp800_90b::mcv(bits).h_min);
  EXPECT_EQ(snap.markov_h, sp800_90b::markov(bits).h_min);
  // Every completed tumbling window equals the batch estimators over its
  // slice; last/min aggregate exactly.
  const std::size_t windows = bits.size() / snap.window_bits;
  ASSERT_EQ(snap.windows, windows);
  if (windows > 0) {
    double mcv_min = 1.0, markov_min = 1.0;
    double mcv_last = 0.0, markov_last = 0.0;
    for (std::size_t w = 0; w < windows; ++w) {
      const BitStream slice = bits.slice(w * snap.window_bits,
                                         snap.window_bits);
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

TEST(StreamingTracker, EmptySnapshotReportsNoDataDefaults) {
  SourceTracker tracker;
  const Snapshot snap = tracker.snapshot();
  EXPECT_EQ(snap.bits, 0u);
  EXPECT_EQ(snap.ones, 0u);
  EXPECT_EQ(snap.runs_v, 0u);
  EXPECT_EQ(snap.blocks, 0u);
  EXPECT_EQ(snap.windows, 0u);
  EXPECT_FALSE(snap.frequency_valid);
  EXPECT_FALSE(snap.block_frequency_valid);
  EXPECT_FALSE(snap.runs_valid);
  EXPECT_FALSE(snap.mcv_valid);
  EXPECT_FALSE(snap.markov_valid);
  // The batch frequency/runs tests are NaN on empty input, so the
  // no-data default (1.0) stands in; everything else is the batch value.
  EXPECT_EQ(snap.frequency_p, 1.0);
  EXPECT_EQ(snap.runs_p, 1.0);
  EXPECT_EQ(snap.cusum_fwd_p, 0.0);  // batch z == 0 branch
  EXPECT_EQ(snap.mcv_h, 0.0);
  EXPECT_EQ(snap.live_min_entropy(), 0.0);
  // No evidence yet is not an alarm: an empty tracker passes.
  EXPECT_TRUE(snap.pass());
}

TEST(StreamingTracker, SingleBitMatchesScalar) {
  // The smallest feed is one byte: all zeros or all ones, a single run.
  for (const std::uint8_t byte : {std::uint8_t{0x00}, std::uint8_t{0xff}}) {
    SourceTracker tracker;
    tracker.feed_bytes(&byte, 1);
    const BitStream bits = BitStream::from_bytes({byte});
    const Snapshot snap = tracker.snapshot();
    EXPECT_EQ(snap.bits, 8u);
    EXPECT_EQ(snap.ones, byte != 0 ? 8u : 0u);
    EXPECT_EQ(snap.runs_v, 1u);
    EXPECT_EQ(snap.cusum_fwd_peak, 8);
    EXPECT_EQ(snap.cusum_bwd_peak, 8);
    EXPECT_TRUE(snap.mcv_valid);
    expect_matches_batch(snap, bits);
  }
}

TEST(StreamingTracker, SubBlockTailMatchesScalar) {
  // One byte short of the first block: zero complete blocks, so the
  // block-frequency chi-square is over an empty sum — exactly the batch
  // result over the same bits.
  const TrackerConfig config{.block_len = 128, .window_bits = 1024};
  const BitStream bits = random_stream(3, config.block_len - 8);
  const Snapshot snap = tracker_of(bits, config).snapshot();
  EXPECT_EQ(snap.blocks, 0u);
  EXPECT_FALSE(snap.block_frequency_valid);
  expect_matches_batch(snap, bits);
}

TEST(StreamingTracker, BlockAndWindowBoundariesMatchScalar) {
  const TrackerConfig config{.block_len = 32, .window_bits = 256};
  for (const std::size_t n :
       {std::size_t{24}, std::size_t{32}, std::size_t{40}, std::size_t{248},
        std::size_t{256}, std::size_t{264}, std::size_t{504},
        std::size_t{512}, std::size_t{520}}) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    const BitStream bits = random_stream(17 + n, n);
    const Snapshot snap = tracker_of(bits, config).snapshot();
    EXPECT_EQ(snap.blocks, n / config.block_len);
    EXPECT_EQ(snap.windows, n / config.window_bits);
    expect_matches_batch(snap, bits);
  }
}

TEST(StreamingTracker, FeedEntryPointsAgree) {
  // The same stream one byte per call, in one call, and as an aligned
  // merge of sub-trackers must produce identical snapshots (all
  // statistics, not just p-values).
  const std::size_t n = 4096;
  const TrackerConfig config{};  // block_len = 128, window_bits = 1024
  const std::size_t align = 1024;
  const BitStream bits = random_stream(99, n);
  const std::vector<std::uint8_t> bytes = bits.to_bytes();

  const Snapshot by_byte = tracker_of(bits, config).snapshot();

  SourceTracker whole(config);
  whole.feed_bytes(bytes.data(), bytes.size());

  SourceTracker merged(config);
  for (std::size_t i = 0; i < n; i += align) {
    merged.merge(tracker_of(bits.slice(i, align), config));
  }

  for (const Snapshot& snap : {whole.snapshot(), merged.snapshot()}) {
    EXPECT_EQ(snap.ones, by_byte.ones);
    EXPECT_EQ(snap.runs_v, by_byte.runs_v);
    EXPECT_EQ(snap.cusum_fwd_peak, by_byte.cusum_fwd_peak);
    EXPECT_EQ(snap.cusum_bwd_peak, by_byte.cusum_bwd_peak);
    EXPECT_EQ(snap.block_sum_sq, by_byte.block_sum_sq);
    EXPECT_EQ(snap.markov_t11, by_byte.markov_t11);
    EXPECT_EQ(snap.markov_t10, by_byte.markov_t10);
    EXPECT_EQ(snap.markov_t01, by_byte.markov_t01);
    EXPECT_EQ(snap.frequency_p, by_byte.frequency_p);
    EXPECT_EQ(snap.block_frequency_p, by_byte.block_frequency_p);
    EXPECT_EQ(snap.runs_p, by_byte.runs_p);
    EXPECT_EQ(snap.cusum_fwd_p, by_byte.cusum_fwd_p);
    EXPECT_EQ(snap.cusum_bwd_p, by_byte.cusum_bwd_p);
    EXPECT_EQ(snap.window_mcv_h_min, by_byte.window_mcv_h_min);
    EXPECT_EQ(snap.window_markov_h_min, by_byte.window_markov_h_min);
  }
  expect_matches_batch(by_byte, bits);
}

TEST(StreamingTracker, FeedBytesIsMsbFirst) {
  // 0b1000'0000 is a 1 followed by seven 0s in stream order.
  SourceTracker tracker;
  const std::uint8_t byte = 0x80;
  tracker.feed_bytes(&byte, 1);
  const Snapshot snap = tracker.snapshot();
  EXPECT_EQ(snap.ones, 1u);
  EXPECT_EQ(snap.runs_v, 2u);       // "1" then "0000000"
  EXPECT_EQ(snap.markov_t10, 1u);   // the 1 -> 0 step
  EXPECT_EQ(snap.markov_t01, 0u);
  EXPECT_EQ(snap.cusum_fwd_peak, 6);  // walk: 1, 0, -1, ..., -6
  EXPECT_EQ(snap.cusum_bwd_peak, 7);  // reversed: -1, ..., -7, -6
}

TEST(StreamingTracker, MergeAlignedEqualsSingleFeed) {
  const TrackerConfig config{.block_len = 32, .window_bits = 128};
  const std::size_t align = 128;  // max(block_len, window_bits)
  const BitStream bits = random_stream(7, 3 * align + 72);

  SourceTracker whole = tracker_of(bits, config);
  SourceTracker left = tracker_of(bits.slice(0, align), config);
  const SourceTracker mid = tracker_of(bits.slice(align, 2 * align), config);
  const SourceTracker right =
      tracker_of(bits.slice(3 * align, bits.size() - 3 * align), config);
  left.merge(mid);
  left.merge(right);

  const Snapshot a = whole.snapshot();
  const Snapshot b = left.snapshot();
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
  expect_matches_batch(b, bits);
}

TEST(StreamingTracker, MergeIntoEmptyAndOfEmpty) {
  const BitStream bits = random_stream(5, 296);
  const SourceTracker fed = tracker_of(bits);
  SourceTracker empty;
  empty.merge(fed);  // 0 % align == 0: always legal
  const Snapshot a = fed.snapshot();
  const Snapshot b = empty.snapshot();
  EXPECT_EQ(a.ones, b.ones);
  EXPECT_EQ(a.runs_v, b.runs_v);
  EXPECT_EQ(a.cusum_fwd_p, b.cusum_fwd_p);
  EXPECT_EQ(a.cusum_bwd_p, b.cusum_bwd_p);

  SourceTracker fed2 = tracker_of(random_stream(6, 1024));
  const Snapshot before = fed2.snapshot();
  fed2.merge(SourceTracker{});  // merging an empty rhs is a no-op
  const Snapshot after = fed2.snapshot();
  EXPECT_EQ(before.bits, after.bits);
  EXPECT_EQ(before.runs_v, after.runs_v);
  EXPECT_EQ(before.cusum_fwd_peak, after.cusum_fwd_peak);
}

TEST(StreamingTracker, MergeMisalignedThrows) {
  const TrackerConfig config{.block_len = 32, .window_bits = 128};
  SourceTracker left = tracker_of(random_stream(1, 96), config);  // 96 % 128 != 0
  const SourceTracker right = tracker_of(random_stream(2, 64), config);
  EXPECT_THROW(left.merge(right), std::invalid_argument);
}

TEST(StreamingTracker, MergeConfigMismatchThrows) {
  SourceTracker a{TrackerConfig{.block_len = 32, .window_bits = 128}};
  const SourceTracker b{TrackerConfig{.block_len = 64, .window_bits = 128}};
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(StreamingTracker, ConfigValidation) {
  EXPECT_THROW(SourceTracker({.block_len = 0, .window_bits = 128}),
               std::invalid_argument);
  EXPECT_THROW(SourceTracker({.block_len = 48, .window_bits = 128}),
               std::invalid_argument);
  EXPECT_THROW(SourceTracker({.block_len = 4, .window_bits = 128}),
               std::invalid_argument);
  EXPECT_THROW(SourceTracker({.block_len = 128, .window_bits = 100}),
               std::invalid_argument);
  EXPECT_NO_THROW(SourceTracker({.block_len = 8, .window_bits = 8}));
}

TEST(StreamingTracker, PassFlipsOnHeavyBias) {
  // A heavily biased stream long enough for the monobit p-value to fall
  // below any sane alpha, and for the windowed MCV to undercut the
  // min-entropy floor.
  const TrackerConfig config{.block_len = 128, .window_bits = 1024};
  support::SplitMix64 rng(404);
  BitStream biased;
  for (std::size_t i = 0; i < 8192; ++i) {
    biased.push_back((rng.next() % 100) < 80);
  }
  const Snapshot snap = tracker_of(biased, config).snapshot();
  EXPECT_LT(snap.frequency_p, 1e-6);
  EXPECT_LT(snap.window_mcv_h_last, 0.5);
  EXPECT_FALSE(snap.pass());
  EXPECT_LT(snap.live_min_entropy(), 0.5);
  // A balanced stream of the same shape passes the same thresholds.
  BitStream balanced;
  for (std::size_t i = 0; i < 8192; ++i) balanced.push_back(rng.next() & 1);
  const Snapshot good = tracker_of(balanced, config).snapshot();
  EXPECT_TRUE(good.pass());
  EXPECT_GT(good.live_min_entropy(), 0.5);
}

TEST(StreamingTracker, LiveMinEntropyPrefersWindowedEvidence) {
  const TrackerConfig config{.block_len = 8, .window_bits = 64};
  // Below one window (one byte short): the cumulative estimators are the
  // only evidence.
  const std::vector<std::uint8_t> bytes = random_stream(11, 64).to_bytes();
  SourceTracker tracker(config);
  tracker.feed_bytes(bytes.data(), bytes.size() - 1);
  Snapshot snap = tracker.snapshot();
  EXPECT_EQ(snap.windows, 0u);
  EXPECT_EQ(snap.live_min_entropy(), std::min(snap.mcv_h, snap.markov_h));
  // Past the first window boundary, the windowed estimates take over.
  tracker.feed_bytes(&bytes.back(), 1);
  snap = tracker.snapshot();
  EXPECT_EQ(snap.windows, 1u);
  EXPECT_EQ(snap.live_min_entropy(),
            std::min(snap.window_mcv_h_last, snap.window_markov_h_last));
}

// The batch MCV estimator used to divide by (n - 1) without a floor and
// returned NaN on empty and single-bit streams; the streaming snapshot and
// the restart matrix score with the same guarded formula, so pin it here.
TEST(ScalarMcvEdgeCase, TinyStreamsReturnNoEntropyNotNaN) {
  BitStream empty;
  const auto r0 = sp800_90b::mcv(empty);
  EXPECT_EQ(r0.p_max, 1.0);
  EXPECT_EQ(r0.h_min, 0.0);
  BitStream one;
  one.push_back(true);
  const auto r1 = sp800_90b::mcv(one);
  EXPECT_EQ(r1.p_max, 1.0);
  EXPECT_EQ(r1.h_min, 0.0);
}

// Known-answer snapshot on the golden seed-42 DhTrng stream — the same
// stream the determinism-golden vectors pin, so a change in either the
// generator or the tracker shows up as an exact integer diff here.
TEST(StreamingTracker, GoldenKatSeed42) {
  core::DhTrng trng({.seed = 42});
  const BitStream bits = trng.generate(4096);
  const std::vector<std::uint8_t> bytes = bits.to_bytes();
  SourceTracker tracker;  // block_len = 128, window_bits = 1024
  tracker.feed_bytes(bytes.data(), bytes.size());
  const Snapshot snap = tracker.snapshot();
  EXPECT_EQ(snap.bits, 4096u);
  EXPECT_EQ(snap.ones, 2097u);
  EXPECT_EQ(snap.runs_v, 2101u);
  EXPECT_EQ(snap.cusum_fwd_peak, 105);
  EXPECT_EQ(snap.cusum_bwd_peak, 123);
  EXPECT_EQ(snap.blocks, 32u);
  EXPECT_EQ(snap.block_sum_sq, 847u);
  EXPECT_EQ(snap.markov_t11, 1046u);
  EXPECT_EQ(snap.markov_t10, 1050u);
  EXPECT_EQ(snap.markov_t01, 1050u);
  EXPECT_EQ(snap.windows, 4u);
  // The scored values, pinned exactly: tracker and batch share the
  // scorers (stats/scores.h), so agreement alone would not see a change
  // to a formula.
  EXPECT_EQ(snap.frequency_p, 0x1.0172fed79a879p-3);
  EXPECT_EQ(snap.block_frequency_p, 0x1.7c2a2c115cbbep-1);
  EXPECT_EQ(snap.runs_p, 0x1.71d6b52f21806p-4);
  EXPECT_EQ(snap.cusum_fwd_p, 0x1.9d2e804457975p-3);
  EXPECT_EQ(snap.cusum_bwd_p, 0x1.bf758bd6250b9p-4);
  EXPECT_EQ(snap.mcv_h, 0x1.d20fb57bb3c43p-1);
  EXPECT_EQ(snap.markov_h, 0x1.ed3d4d780a24ap-1);
  EXPECT_EQ(snap.window_mcv_h_last, 0x1.b9909001fb394p-1);
  EXPECT_EQ(snap.window_markov_h_last, 0x1.e899d26a14496p-1);
  EXPECT_EQ(snap.window_mcv_h_min, 0x1.a8c0a3cddb0adp-1);
  EXPECT_EQ(snap.window_markov_h_min, 0x1.e4bb5f55cdde3p-1);
  expect_matches_batch(snap, bits);
  EXPECT_TRUE(snap.pass());
}

}  // namespace
}  // namespace dhtrng::stats::streaming
