// SP 800-90B section 6.3.4: Compression (Maurer-style) estimator.
#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "stats/kernels.h"
#include "stats/scores.h"
#include "stats/sp800_90b.h"

namespace dhtrng::stats::kernels {

Log2DistanceSums log2_distance_sums(const BitStream& bits,
                                    std::size_t block_bits, std::size_t init,
                                    std::size_t test) {
  // The block value is only a table key: the LSB-first read permutes
  // `last[]` slots but leaves every distance b + 1 - last[v] — and with it
  // the log2 sums' operation sequence — unchanged.
  const std::uint64_t mask = (std::uint64_t{1} << block_bits) - 1;
  const auto block_value = [&](std::size_t b) {
    return static_cast<std::size_t>(bits.chunk64(b * block_bits) & mask);
  };
  std::vector<std::size_t> last(std::size_t{1} << block_bits, 0);
  for (std::size_t b = 0; b < init; ++b) last[block_value(b)] = b + 1;
  Log2DistanceSums sums;
  for (std::size_t b = init; b < init + test; ++b) {
    const std::size_t v = block_value(b);
    const double lg = std::log2(static_cast<double>(b + 1 - last[v]));
    sums.sum += lg;
    sums.sum_sq += lg * lg;
    last[v] = b + 1;
  }
  return sums;
}

}  // namespace dhtrng::stats::kernels

namespace dhtrng::stats::sp800_90b {

namespace {

using scores::kZ99;
constexpr std::size_t kBlockBits = 6;       // b
constexpr std::size_t kDictBlocks = 1000;   // d

/// G(z): expected compression statistic for the near-uniform family with
/// most-likely-block probability z (SP 800-90B 6.3.4 step 7).
///
/// Two bitwise-exact shortcuts keep the binary search affordable:
///  * log2(u) / log2(t) come from a caller-supplied table — the same libm
///    call on the same argument, evaluated once instead of per invocation;
///  * both power series underflow: once q_pow reaches exact 0.0 the inner
///    sum only adds log2(u) * 0.0 == 0.0 (skipped, u jumped forward), and
///    for t past the point where q^(t-1) < 2^-1080 — a factor 64 below the
///    smallest subnormal, so any faithfully-rounded pow returns exact 0.0
///    — the pow call is replaced by the 0.0 it would have produced.
double g_function(double z, std::size_t d, std::size_t num_blocks,
                  const std::vector<double>& log2_tab) {
  const double q = 1.0 - z;
  const std::size_t v = num_blocks - d;
  // t beyond which pow(q, t - 1) is certainly exact 0.0.
  const double lg_q = std::log2(q);
  double t_zero = std::numeric_limits<double>::infinity();
  if (lg_q < 0.0) t_zero = 1.0 - 1080.0 / lg_q;
  // inner(t) = sum_{u=1}^{t-1} log2(u) (1-z)^(u-1); accumulate as t grows.
  double inner = 0.0;
  double q_pow = 1.0;  // (1-z)^(u-1) for the next u
  std::size_t u = 1;
  double total = 0.0;
  for (std::size_t t = d + 1; t <= num_blocks; ++t) {
    if (q_pow != 0.0) {
      while (u < t) {
        inner += log2_tab[u] * q_pow;
        q_pow *= q;
        ++u;
      }
    } else {
      u = t;  // remaining terms are exact zeros
    }
    // F(z,t,u) = z^2 (1-z)^(u-1) for u < t, z (1-z)^(t-1) for u = t.
    const double td = static_cast<double>(t);
    const double tail =
        td > t_zero ? 0.0 : std::pow(q, td - 1.0);
    total += z * z * inner + z * log2_tab[t] * tail;
  }
  return total / static_cast<double>(v);
}

}  // namespace

EstimatorResult compression(const BitStream& bits) {
  EstimatorResult result;
  result.name = "Compression";
  const std::size_t num_blocks = bits.size() / kBlockBits;
  if (num_blocks <= kDictBlocks + 1) {
    result.p_max = 1.0;
    result.h_min = 0.0;
    return result;
  }
  const std::size_t k = num_blocks - kDictBlocks;
  const auto [sum, sum_sq] =
      kernels::log2_distance_sums(bits, kBlockBits, kDictBlocks, k);
  const double kd = static_cast<double>(k);
  const double mean = sum / kd;
  const double var = (sum_sq - kd * mean * mean) / (kd - 1.0);
  const double b_d = static_cast<double>(kBlockBits);
  const double c = 0.7 - 0.8 / b_d +
                   (4.0 + 32.0 / b_d) * std::pow(kd, -3.0 / b_d) / 15.0;
  const double sigma = c * std::sqrt(var);
  const double x_lo = mean - kZ99 * sigma / std::sqrt(kd);

  // Expected statistic of the near-uniform family with most-likely-block
  // probability p: the MCV block contributes G(p) and each of the 2^b - 1
  // other blocks contributes G((1-p)/(2^b-1)) (SP 800-90B 6.3.4 step 7).
  const double symbols = std::pow(2.0, b_d);
  std::vector<double> log2_tab(num_blocks + 1);
  for (std::size_t u = 1; u <= num_blocks; ++u) {
    log2_tab[u] = std::log2(static_cast<double>(u));
  }
  const auto expected_statistic = [&](double p) {
    return g_function(p, kDictBlocks, num_blocks, log2_tab) +
           (symbols - 1.0) *
               g_function((1.0 - p) / (symbols - 1.0), kDictBlocks,
                          num_blocks, log2_tab);
  };
  // Binary search for the largest p with E[X](p) >= x_lo (more-biased
  // sources compress better, so the expectation decreases in p).
  double lo = 1.0 / symbols, hi = 1.0 - 1e-9;
  bool found = false;
  for (int it = 0; it < 40; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (expected_statistic(mid) >= x_lo) {
      lo = mid;
      found = true;
    } else {
      hi = mid;
    }
  }
  const double p = found ? lo : 1.0 / symbols;
  result.p_max = std::clamp(std::pow(p, 1.0 / b_d), 1e-12, 1.0);
  result.h_min = std::min(-std::log2(p) / b_d, 1.0);
  return result;
}

}  // namespace dhtrng::stats::sp800_90b
