// SP 800-22 sections 2.1-2.4 and 2.13: Frequency, Block Frequency, Runs,
// Longest Run of Ones, and Cumulative Sums.
//
// Each test scores an integer sufficient statistic (peak excursion,
// transition count, per-block longest run) that a kernel derives from
// whole 64-bit words; the p-value formula (a scorer of stats/scores.h for
// the tests the streaming tracker also scores) runs on that integer.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "stats/kernels.h"
#include "stats/scores.h"
#include "stats/sp800_22.h"
#include "support/special_functions.h"
#include "support/wordops.h"

namespace dhtrng::stats::kernels {

/// Per-byte walk tables: within a byte the walk's extreme partial sums are
/// s + max_prefix and s + min_prefix, so the peak |S_k| over the byte is
/// the larger magnitude of the two.
long long cusum_peak(const BitStream& bits, bool forward) {
  namespace wo = support::wordops;
  const std::size_t n = bits.size();
  const auto words = bits.words();
  const std::size_t whole_bytes = n / 8;
  long long s = 0;
  long long z = 0;
  const auto step_byte = [&](const wo::ByteWalk& bw) {
    z = std::max(z, std::max(std::llabs(s + bw.max_prefix),
                             std::llabs(s + bw.min_prefix)));
    s += bw.delta;
  };
  const auto byte_at = [&](std::size_t b) {
    return static_cast<std::uint8_t>(words[b >> 3] >> ((b & 7) * 8));
  };
  const auto step_bit = [&](bool bit) {
    s += bit ? 1 : -1;
    z = std::max(z, std::llabs(s));
  };
  if (forward) {
    for (std::size_t b = 0; b < whole_bytes; ++b) {
      step_byte(wo::kWalkForward[byte_at(b)]);
    }
    for (std::size_t i = whole_bytes * 8; i < n; ++i) step_bit(bits[i]);
  } else {
    for (std::size_t i = n; i > whole_bytes * 8; --i) step_bit(bits[i - 1]);
    for (std::size_t b = whole_bytes; b > 0; --b) {
      step_byte(wo::kWalkBackward[byte_at(b - 1)]);
    }
  }
  return z;
}

/// Transition count via popcount(x ^ (x >> 1)) per 64-bit chunk; bit j of
/// chunk64(i) ^ chunk64(i + 1) flags a transition between positions i + j
/// and i + j + 1.
std::size_t runs_count(const BitStream& bits) {
  const std::size_t n = bits.size();
  std::size_t v = 1;
  for (std::size_t i = 0; i + 1 < n; i += 64) {
    const std::uint64_t t = bits.chunk64(i) ^ bits.chunk64(i + 1);
    const std::size_t valid = std::min<std::size_t>(64, n - 1 - i);
    const std::uint64_t mask = valid >= 64 ? ~0ULL : (1ULL << valid) - 1;
    v += static_cast<std::size_t>(std::popcount(t & mask));
  }
  return v;
}

namespace {

/// Longest run of ones in a 64-bit word (x &= x << 1 peels one bit off every
/// run per iteration).
std::size_t word_longest_run(std::uint64_t x) {
  std::size_t k = 0;
  while (x != 0) {
    x &= x << 1;
    ++k;
  }
  return k;
}

std::size_t block_longest_ones_at(const BitStream& bits, std::size_t base,
                                  std::size_t m) {
  std::size_t longest = 0;
  std::size_t run = 0;  // ones-run carried across chunk boundaries
  for (std::size_t off = 0; off < m; off += 64) {
    const std::size_t valid = std::min<std::size_t>(64, m - off);
    const std::uint64_t x = bits.chunk64(base + off) &
                            (valid >= 64 ? ~0ULL : (1ULL << valid) - 1);
    const std::size_t lead = static_cast<std::size_t>(std::countr_one(x));
    if (lead >= valid) {  // chunk is all ones: the carried run continues
      run += valid;
      continue;
    }
    longest = std::max(longest, run + lead);
    longest = std::max(longest, word_longest_run(x));
    // Ones at the top of the valid window seed the next chunk's carry.
    run = static_cast<std::size_t>(std::countl_one(x << (64 - valid)));
  }
  return std::max(longest, run);
}

}  // namespace

std::vector<std::size_t> block_longest_ones(const BitStream& bits,
                                            std::size_t m) {
  std::vector<std::size_t> longest(bits.size() / m);
  for (std::size_t b = 0; b < longest.size(); ++b) {
    longest[b] = block_longest_ones_at(bits, b * m, m);
  }
  return longest;
}

}  // namespace dhtrng::stats::kernels

namespace dhtrng::stats::scores {

using support::erfc;
using support::igamc;
using support::normal_cdf;

double frequency_p(std::uint64_t n_bits, std::uint64_t ones_bits) {
  const double n = static_cast<double>(n_bits);
  const double ones = static_cast<double>(ones_bits);
  const double s = std::abs(2.0 * ones - n) / std::sqrt(n);
  return erfc(s / std::sqrt(2.0));
}

double block_frequency_p(std::uint64_t blocks, double sum_sq_dev,
                         std::size_t block_len) {
  const double chi2 = sum_sq_dev * (4.0 * static_cast<double>(block_len));
  return igamc(static_cast<double>(blocks) / 2.0, chi2 / 2.0);
}

double runs_p(std::uint64_t n, std::uint64_t ones, std::uint64_t v) {
  const double nd = static_cast<double>(n);
  const double pi = static_cast<double>(ones) / nd;
  // Prerequisite frequency check (SP 800-22 2.3.4 step 2).
  if (std::abs(pi - 0.5) >= 2.0 / std::sqrt(nd)) return 0.0;
  const double vd = static_cast<double>(v);
  return erfc(std::abs(vd - 2.0 * nd * pi * (1.0 - pi)) /
              (2.0 * std::sqrt(2.0 * nd) * pi * (1.0 - pi)));
}

double cusum_p(std::uint64_t n, std::int64_t z) {
  if (z == 0) return 0.0;
  const double zn = static_cast<double>(z);
  const double sqrt_n = std::sqrt(static_cast<double>(n));
  const double nd = static_cast<double>(n);
  // Summation bounds truncate toward zero, matching the NIST STS reference
  // implementation (and its worked example 2.13.8).
  double sum1 = 0.0;
  {
    const long long lo = static_cast<long long>((-nd / zn + 1.0) / 4.0);
    const long long hi = static_cast<long long>((nd / zn - 1.0) / 4.0);
    for (long long k = lo; k <= hi; ++k) {
      const double kd = static_cast<double>(k);
      sum1 += normal_cdf((4.0 * kd + 1.0) * zn / sqrt_n) -
              normal_cdf((4.0 * kd - 1.0) * zn / sqrt_n);
    }
  }
  double sum2 = 0.0;
  {
    const long long lo = static_cast<long long>((-nd / zn - 3.0) / 4.0);
    const long long hi = static_cast<long long>((nd / zn - 1.0) / 4.0);
    for (long long k = lo; k <= hi; ++k) {
      const double kd = static_cast<double>(k);
      sum2 += normal_cdf((4.0 * kd + 3.0) * zn / sqrt_n) -
              normal_cdf((4.0 * kd + 1.0) * zn / sqrt_n);
    }
  }
  return 1.0 - sum1 + sum2;
}

}  // namespace dhtrng::stats::scores

namespace dhtrng::stats::sp800_22 {

using support::igamc;

TestResult frequency(const BitStream& bits) {
  return {"Frequency", {scores::frequency_p(bits.size(), bits.count_ones())}};
}

TestResult block_frequency(const BitStream& bits, std::size_t block_len) {
  const std::size_t blocks = bits.size() / block_len;
  // Summed in stream order, which is the formula for any block length
  // (the streaming tracker's integer sum needs a power of two).
  double sum_sq_dev = 0.0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const double pi = static_cast<double>(
                          bits.count_ones(b * block_len, block_len)) /
                      static_cast<double>(block_len);
    sum_sq_dev += (pi - 0.5) * (pi - 0.5);
  }
  return {"BlockFrequency",
          {scores::block_frequency_p(blocks, sum_sq_dev, block_len)}};
}

TestResult cumulative_sums(const BitStream& bits) {
  const std::size_t n = bits.size();
  return {"CumulativeSums",
          {scores::cusum_p(n, kernels::cusum_peak(bits, true)),
           scores::cusum_p(n, kernels::cusum_peak(bits, false))}};
}

TestResult runs(const BitStream& bits) {
  return {"Runs", {scores::runs_p(bits.size(), bits.count_ones(),
                                  kernels::runs_count(bits))}};
}

TestResult longest_run(const BitStream& bits) {
  const std::size_t n = bits.size();
  std::size_t m;         // block length
  std::size_t k;         // number of chi-square classes - 1
  std::vector<double> pi;
  std::size_t v_min;     // class lower bound (longest run <= v_min)
  if (n >= 750000) {
    m = 10000, k = 6, v_min = 10;
    pi = {0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727};
  } else if (n >= 6272) {
    m = 128, k = 5, v_min = 4;
    pi = {0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124};
  } else {
    m = 8, k = 3, v_min = 1;
    pi = {0.2148, 0.3672, 0.2305, 0.1875};
  }
  const std::vector<std::size_t> longest_per_block =
      kernels::block_longest_ones(bits, m);
  const std::size_t blocks = longest_per_block.size();
  std::vector<std::size_t> nu(k + 1, 0);
  for (std::size_t longest : longest_per_block) {
    std::size_t cls = longest <= v_min ? 0
                      : longest >= v_min + k ? k
                                             : longest - v_min;
    ++nu[cls];
  }
  double chi2 = 0.0;
  const double nb = static_cast<double>(blocks);
  for (std::size_t c = 0; c <= k; ++c) {
    const double expected = nb * pi[c];
    const double d = static_cast<double>(nu[c]) - expected;
    chi2 += d * d / expected;
  }
  return {"LongestRun", {igamc(static_cast<double>(k) / 2.0, chi2 / 2.0)}};
}

}  // namespace dhtrng::stats::sp800_22
