// The counting kernels of the statistical suites: the one place that says
// how SP 800-22, SP 800-90B, FIPS 140-2 and AIS-31 count.  Internal to
// src/stats (the public entry points are sp800_22.h, sp800_90b.h,
// fips140.h and ais31.h).
//
// Each kernel reduces a whole stream or sample to the quantity its test
// scores — a transition count, a run histogram, a per-block statistic, the
// distance sums of a Maurer-style table — reading whole 64-bit words
// (popcounts, shift-and-mask window extraction, byte-table prefix sums).
// Where a table is keyed by a block or window value read LSB-first, a
// permutation of the MSB-first slots the specifications describe, the
// kernel returns only what both orders give exactly (a disjointness
// verdict, a sum of squared counts, sums over last-seen distances), never
// the keys; the pattern and tuple tables are keyed MSB-first.
// Floating-point results replay the specification's operation sequence,
// so they are exact too.
//
// tests/support/stats_oracle.h has a bit-at-a-time version of every
// kernel with the same signature.  The EngineEquivalence and
// EngineDifferential tests and bench_stats_microbench require the two to
// agree exactly.  The scorers in scores.h turn these counts into p-values
// and do no counting, so they have no oracle twin.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/bitstream.h"

namespace dhtrng::stats::kernels {

using support::BitStream;

// ---- Shared by several suites --------------------------------------------

/// t[a][b]: adjacent pairs (bits[i], bits[i + 1]) equal to (a, b), over the
/// `pairs` pairs starting at `begin` (SP 800-90B Markov, AIS-31 T6 / T7).
using TransitionCounts = std::array<std::array<std::uint64_t, 2>, 2>;
TransitionCounts transition_counts(const BitStream& bits, std::size_t begin,
                                   std::size_t pairs);

/// counts[v][min(length, 6) - 1]: maximal runs of value v in bits
/// [0, len) (FIPS 140-2 runs, AIS-31 T3).
using RunHistogram = std::array<std::array<std::size_t, 6>, 2>;
RunHistogram run_histogram(const BitStream& bits, std::size_t len);

/// Longest run of equal bits in [0, len), len >= 1 (FIPS 140-2 long run,
/// AIS-31 T4).
std::size_t longest_run(const BitStream& bits, std::size_t len);

/// Sum over the 16 values of the squared count of that value among the
/// first `nibbles` 4-bit blocks (FIPS 140-2 poker, AIS-31 T2).
std::uint64_t nibble_square_sum(const BitStream& bits, std::size_t nibbles);

/// Maurer-style distance sums: the first `init` blocks of `block_bits`
/// bits seed a last-seen table; for each of the next `test` blocks,
/// lg = log2(b + 1 - last[value]) is added to `sum` and lg * lg to
/// `sum_sq`, in stream order (SP 800-22 Universal, SP 800-90B Compression).
struct Log2DistanceSums {
  double sum = 0.0;
  double sum_sq = 0.0;
};
Log2DistanceSums log2_distance_sums(const BitStream& bits,
                                    std::size_t block_bits, std::size_t init,
                                    std::size_t test);

// ---- SP 800-22 -------------------------------------------------------------

/// Cumulative Sums: max_k |S_k| of the +-1 walk, forward or backward.
long long cusum_peak(const BitStream& bits, bool forward);

/// Runs: V_n(obs), one plus the number of adjacent unequal pairs.
std::size_t runs_count(const BitStream& bits);

/// Longest Run of Ones: the longest run of ones in each of the
/// size() / m consecutive m-bit blocks.
std::vector<std::size_t> block_longest_ones(const BitStream& bits,
                                            std::size_t m);

/// Binary Matrix Rank over consecutive 32 x 32 matrices (row r of a matrix
/// is its r-th 32-bit slice, column c its bit c).
struct RankCounts {
  std::size_t matrices = 0;
  std::size_t full = 0;    ///< rank 32
  std::size_t minus1 = 0;  ///< rank 31
};
RankCounts rank_counts(const BitStream& bits);

/// DFT: how many of the first n/2 magnitudes of the real DFT of `x` lie
/// below `threshold`.
std::size_t dft_below_threshold(const std::vector<double>& x,
                                double threshold);

/// Non-overlapping Template Matching: w[t][j], the greedy non-overlapping
/// matches of aperiodic template t (sp800_22::aperiodic_templates_cached
/// order) in block j of kTemplateBlocks equal blocks.
inline constexpr std::size_t kTemplateBlocks = 8;
std::vector<std::array<std::size_t, kTemplateBlocks>> non_overlapping_counts(
    const BitStream& bits, std::size_t template_len);

/// Overlapping Template Matching: overlapping matches of the all-ones
/// template in each of the size() / block_len blocks.
std::vector<std::size_t> overlapping_block_matches(const BitStream& bits,
                                                   std::size_t block_len,
                                                   std::size_t template_len);

/// Serial: sum of squared counts of the overlapping m-bit patterns of the
/// cyclically extended sequence, added in MSB-first pattern order.
double pattern_square_sum(const BitStream& bits, std::size_t m);

/// Approximate Entropy: sum of p ln p over the same pattern counts
/// (p = count / size(), zero counts skipped), in MSB-first pattern order.
double pattern_entropy_sum(const BitStream& bits, std::size_t m);

/// Random Excursions (Variant): the +-1 walk's cycles and state visits.
struct WalkVisits {
  std::size_t cycles = 0;
  /// klass[x + 4][k]: cycles visiting state x in -4..4 exactly k times
  /// (k clamped to 5; x = 0 unused).
  std::array<std::array<std::size_t, 6>, 9> klass{};
  /// total_visits[x + 9]: visits to state x in -9..9 (x = 0 unused).
  std::array<std::size_t, 19> total_visits{};
};
WalkVisits walk_visits(const BitStream& bits);

/// Linear Complexity: the Berlekamp-Massey linear complexity of each of
/// the size() / m consecutive m-bit blocks.
std::vector<std::size_t> block_linear_complexities(const BitStream& bits,
                                                   std::size_t m);

// ---- SP 800-90B ------------------------------------------------------------

/// Global hit statistics of a prediction estimator.
struct PredictionScore {
  std::size_t correct = 0;
  std::size_t total = 0;
  std::size_t run = 0;  ///< current run of correct predictions
  std::size_t longest_run = 0;
  void observe(bool hit) {
    ++total;
    if (hit) {
      ++correct;
      ++run;
      if (run > longest_run) longest_run = run;
    } else {
      run = 0;
    }
  }
};

/// MultiMCW: sub-predictor w guesses the most common value of the trailing
/// kMcwWindows[w] bits (ties -> 1); the global guess is the leader's.
inline constexpr std::array<std::size_t, 4> kMcwWindows = {63, 255, 1023,
                                                           4095};
PredictionScore multi_mcw_score(const BitStream& bits);

/// Lag: sub-predictor d guesses bits[i - d - 1], d < kLags (0 before the
/// lag is live); the leader is the lowest d with the highest score.
inline constexpr std::size_t kLags = 128;
PredictionScore lag_score(const BitStream& bits);

/// t-Tuple and LRS: the p-hat each estimator bounds (0 when no length
/// qualifies).  Lengths run 1..kMaxTupleLen; t-Tuple keeps lengths whose
/// most common tuple appears at least kTupleCutoff times, LRS starts at
/// the first length that does not and stops when no tuple repeats.
inline constexpr std::size_t kMaxTupleLen = 63;
inline constexpr std::uint64_t kTupleCutoff = 35;
double t_tuple_p_hat(const BitStream& bits);
double lrs_p_hat(const BitStream& bits);

/// The overlapping windows of length `len` (1..63): the count of the most
/// common value and the number of pairs of equal windows (sum over values
/// of C(count, 2)).  One scan per length; t-Tuple and LRS use it in place
/// of the partition refiner on streams of 2^32 - 1 bits or more.
struct TupleStats {
  std::uint64_t max_count = 0;
  double collision_pairs = 0.0;
};
TupleStats tuple_stats(const BitStream& bits, std::size_t len);

// ---- AIS-31 ----------------------------------------------------------------

/// T0: true when the `blocks` consecutive `block_bits`-bit blocks
/// (block_bits <= 64) are pairwise distinct.
bool blocks_distinct(const BitStream& bits, std::size_t blocks,
                     std::size_t block_bits);

/// T8 (Coron): the first `init` 8-bit blocks seed a last-seen table; the
/// sum over the next `test` blocks of g[b + 1 - last[value]], in stream
/// order.  `g` has at least init + test + 1 entries.
double coron_g_sum(const BitStream& bits, std::size_t init, std::size_t test,
                   const std::vector<double>& g);

}  // namespace dhtrng::stats::kernels
