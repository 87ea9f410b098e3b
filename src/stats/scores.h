// The scoring formulas of the statistics that more than one caller
// scores: the one place that says how an integer sufficient statistic
// becomes a p-value or a min-entropy estimate.  Internal to src/stats.
//
// Each scorer is a function of the integers a counting kernel (or the
// streaming tracker's O(1) state) produces, and is defined in the batch
// translation unit that calls it, like the kernels in kernels.h.  Its
// callers are the batch tests (sp800_22::{frequency, block_frequency,
// runs, cumulative_sums}, sp800_90b::{mcv, markov, t_tuple, lrs}), the
// streaming tracker's snapshot and window close, and the restart matrix.
// They run the same floating-point operations on the same integers, so
// their results agree bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>

#include "stats/kernels.h"

namespace dhtrng::stats::scores {

/// 99% two-sided normal quantile (SP 800-90B confidence bounds).
inline constexpr double kZ99 = 2.5758293035489004;

// ---- SP 800-22 (sp800_22/frequency_tests.cpp) ------------------------------

/// 2.1 Frequency over n >= 1 bits with `ones` ones.
double frequency_p(std::uint64_t n, std::uint64_t ones);

/// 2.2 Block Frequency: `blocks` blocks of `block_len` bits whose
/// (pi - 1/2)^2 terms sum to `sum_sq_dev`.
double block_frequency_p(std::uint64_t blocks, double sum_sq_dev,
                         std::size_t block_len);

/// 2.3 Runs over n >= 1 bits with `ones` ones and V_n(obs) = v; 0 when
/// the prerequisite frequency check fails.
double runs_p(std::uint64_t n, std::uint64_t ones, std::uint64_t v);

/// 2.13 Cumulative Sums over n bits with peak excursion z (0 when z = 0).
double cusum_p(std::uint64_t n, std::int64_t z);

// ---- SP 800-90B (sp800_90b/basic.cpp) --------------------------------------

/// 6.3.1 Most Common Value: the 99% upper bound on the most common
/// value's probability; 1 below two samples.
double mcv_p_max(std::uint64_t n, std::uint64_t ones);

/// The 99% upper confidence bound min(1, p + kZ99 * sqrt(p(1-p)/(n-1)))
/// on a probability estimated as `p_hat` from n >= 2 samples: MCV's
/// p_max, and the t-Tuple and LRS bounds (sp800_90b/tuple_lrs.cpp).
double p_upper_99(double p_hat, double n);

/// 6.3.3 Markov: the per-bit probability of the most likely 128-bit path
/// under the first-order model of n bits with `ones` ones and the
/// transition counts `t` of its n - 1 adjacent pairs; 1 below two bits.
double markov_p_max(std::uint64_t n, std::uint64_t ones,
                    const kernels::TransitionCounts& t);

/// An estimator's p_max clamped to [1e-12, 1] and its min-entropy
/// -log2(p_max), capped at 1 bit.
struct MinEntropy {
  double p_max = 1.0;
  double h_min = 0.0;
};
MinEntropy min_entropy(double p_max);

}  // namespace dhtrng::stats::scores
