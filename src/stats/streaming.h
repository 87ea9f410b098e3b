// Streaming online certification — incremental, mergeable versions of the
// cheap SP 800-22 kernels (monobit, block frequency, runs, cumulative
// sums) plus a tumbling-window SP 800-90B MCV/Markov min-entropy
// estimate, maintained as O(1)-state accumulators while bytes flow
// through core::EntropyPool.  This is AIS-31's online-test model promoted
// to a first-class service feature: the tracker certifies the *served*
// stream (bits that passed the RCT/APT health gate), not an offline
// sample.
//
// Correctness contract: a SourceTracker fed any byte chunking of a
// stream (single bytes, runs of bytes, aligned merges of sub-trackers)
// yields a snapshot() whose statistics and p-values are *bit-exactly*
// equal to the batch suites over the same bits (whose counting kernels
// the oracle tests hold to the bit-at-a-time oracle in
// tests/support/stats_oracle.h):
//
//   frequency_p        == sp800_22::frequency(bits)
//   block_frequency_p  == sp800_22::block_frequency(bits, block_len)
//   runs_p             == sp800_22::runs(bits)
//   cusum_{fwd,bwd}_p  == sp800_22::cumulative_sums(bits)
//   mcv_h / markov_h   == sp800_90b::{mcv,markov}(bits).h_min
//   window h values    == sp800_90b::{mcv,markov}(window slice).h_min
//
// The streaming state is purely integer sufficient statistics (popcounts,
// transition counts, ±1-walk prefix/suffix extremes via the
// support::wordops byte tables, per-block squared deviations).  Every
// floating-point operation happens in the batch suites' own scorers
// (stats/scores.h), called at snapshot() time and when a window closes,
// so the two sides share one formula per statistic.  Block frequency is
// the one test where the batch code sums doubles in stream order — with
// block_len a power of two each term (pi - 0.5)^2 = d^2 / block_len^2 is
// an exactly-representable dyadic rational and the partial sums stay
// exact below 2^53, so the integer sum of d^2 gives the batch sum
// bit-for-bit in any order.  The differential battery
// (tests/stats/test_streaming_differential.cpp) checks the counting.
//
// Merge semantics: merge(rhs) appends rhs's stream after this tracker's.
// The result is exact when this tracker's bit count is a multiple of
// max(block_len, window_bits) (both powers of two, so that is their lcm)
// — then rhs's block and window grids land on the same offsets they had
// standalone.  Misaligned or config-mismatched merges throw.  The
// EntropyPool feeds each producer's tracker whole blocks, so the pool's
// merged view is always exact.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dhtrng::stats::streaming {

struct TrackerConfig {
  /// SP 800-22 2.2 block length for the streaming block-frequency test.
  /// Must be a power of two >= 8 (powers of two are what make the
  /// streaming chi-square exactly equal to the scalar sum).
  std::size_t block_len = 128;
  /// Tumbling-window size for the windowed 90B MCV/Markov estimates.
  /// Must be a power of two >= 8.
  std::size_t window_bits = 1024;
};

/// Decision thresholds for Snapshot::pass().  kAlpha is far below
/// SP 800-22's offline 0.01: an online monitor evaluates the same growing
/// stream at every snapshot, so the per-kernel false-alarm rate has to
/// sit near the AIS-31 online-test regime rather than the one-shot-test
/// regime.
inline constexpr double kAlpha = 1e-6;  ///< SP 800-22 p-value floor
/// Windowed 90B h_min floor (per bit): the CERT floor.
inline constexpr double kMinEntropy = 0.5;

/// One coherent view of a tracker's state: the integer sufficient
/// statistics (pinned by the KAT tests) plus the derived p-values and
/// min-entropy estimates.  `*_valid` flags mark kernels whose minimum
/// data requirement is met; invalid kernels report their no-data value
/// and are skipped by pass().
struct Snapshot {
  // Config echo (so a snapshot is self-describing in CERT output).
  std::size_t block_len = 0;
  std::size_t window_bits = 0;

  // Integer sufficient statistics.
  std::uint64_t bits = 0;
  std::uint64_t ones = 0;
  std::uint64_t runs_v = 0;          ///< SP 800-22 2.3 V_n (transitions + 1)
  std::int64_t cusum_fwd_peak = 0;   ///< max |S_k| of the forward ±1 walk
  std::int64_t cusum_bwd_peak = 0;   ///< max |S_k| of the backward walk
  std::uint64_t blocks = 0;          ///< complete block-frequency blocks
  std::uint64_t block_sum_sq = 0;    ///< sum over blocks of d^2, d = ones - L/2
  std::uint64_t markov_t11 = 0;      ///< 1->1 transitions (whole stream)
  std::uint64_t markov_t10 = 0;      ///< 1->0 transitions
  std::uint64_t markov_t01 = 0;      ///< 0->1 transitions
  std::uint64_t windows = 0;         ///< completed 90B windows

  // SP 800-22 p-values (exactly the batch suite's).
  double frequency_p = 1.0;
  double block_frequency_p = 1.0;
  double runs_p = 1.0;
  double cusum_fwd_p = 1.0;
  double cusum_bwd_p = 1.0;
  bool frequency_valid = false;        ///< bits >= 1
  bool block_frequency_valid = false;  ///< blocks >= 1
  bool runs_valid = false;             ///< bits >= 1
  bool cusum_valid = false;            ///< bits >= 1

  // SP 800-90B min-entropy estimates (exactly the batch suite's h_min).
  double mcv_h = 0.0;     ///< cumulative MCV over the whole stream
  double markov_h = 0.0;  ///< cumulative Markov over the whole stream
  bool mcv_valid = false;     ///< bits >= 2
  bool markov_valid = false;  ///< bits >= 2

  // Tumbling-window 90B estimates (valid once windows >= 1).
  double window_mcv_h_last = 0.0;
  double window_markov_h_last = 0.0;
  double window_mcv_h_min = 0.0;   ///< min over all completed windows
  double window_markov_h_min = 0.0;

  /// Smallest live min-entropy evidence: the windowed last-window
  /// estimates when a window has completed, else the cumulative
  /// estimates, else 0 entropy claimed (no data).
  double live_min_entropy() const;

  /// Online pass/fail: every valid SP 800-22 p-value >= kAlpha and the
  /// last-window 90B estimates (the AIS-31 "current window" decision)
  /// >= kMinEntropy.  Trackers with no completed window fall back to the
  /// cumulative estimates once they are valid.
  bool pass() const;
};

/// Incremental certification state for one bit stream, fed whole bytes
/// in stream order.  Bytes unpack MSB-first (the pool's emission packing
/// and the BitStream::from_bytes convention).
class SourceTracker {
 public:
  explicit SourceTracker(TrackerConfig config = {});

  void feed_bytes(const std::uint8_t* data, std::size_t len);

  /// Append rhs's stream after this tracker's.  Exact only when
  /// bits() % max(block_len, window_bits) == 0 (see file comment);
  /// throws std::invalid_argument on misalignment or config mismatch.
  void merge(const SourceTracker& rhs);

  Snapshot snapshot() const;

  std::uint64_t bits() const { return n_; }
  const TrackerConfig& config() const { return config_; }

 private:
  void step_byte(std::uint8_t v);
  void finish_block();
  void finish_window();

  TrackerConfig config_;

  std::uint64_t n_ = 0;
  std::uint64_t ones_ = 0;

  // Runs: transition count plus the boundary bits for merging.
  std::uint64_t transitions_ = 0;
  bool first_bit_ = false;
  bool last_bit_ = false;

  // Cumulative sums: the ±1 walk's total displacement plus its prefix
  // and suffix extremes (all including the empty prefix/suffix = 0).
  std::int64_t walk_ = 0;
  std::int64_t max_prefix_ = 0;
  std::int64_t min_prefix_ = 0;
  std::int64_t max_suffix_ = 0;
  std::int64_t min_suffix_ = 0;

  // Block frequency: completed-block squared deviations + current block.
  std::uint64_t block_sum_sq_ = 0;
  std::uint64_t blocks_ = 0;
  std::uint64_t cur_block_ones_ = 0;
  std::size_t cur_block_fill_ = 0;

  // Markov transition counts over the whole stream.
  std::uint64_t t11_ = 0;
  std::uint64_t t10_ = 0;
  std::uint64_t t01_ = 0;

  // Tumbling 90B window: intra-window counts + completed-window results.
  std::uint64_t w_ones_ = 0;
  std::uint64_t w_t11_ = 0;
  std::uint64_t w_t10_ = 0;
  std::uint64_t w_t01_ = 0;
  std::size_t w_fill_ = 0;
  std::uint64_t windows_ = 0;
  double w_mcv_last_ = 0.0;
  double w_markov_last_ = 0.0;
  double w_mcv_min_ = 0.0;
  double w_markov_min_ = 0.0;
};

}  // namespace dhtrng::stats::streaming
