// SP 800-22 sections 2.11 and 2.12: Serial and Approximate Entropy.
// Both count overlapping m-bit patterns on the cyclically extended sequence.
//
// The kernels slide an LSB-first window register fed from 64-bit chunks
// instead of rebuilding the MSB-first pattern value bit by bit.  The count
// array is therefore indexed by the bit-reversed pattern value; both sums
// iterate it in bit-reversed index order so the accumulation visits counts
// in MSB-first pattern order, the specification's sequence.
#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/kernels.h"
#include "stats/sp800_22.h"
#include "support/special_functions.h"
#include "support/wordops.h"

namespace dhtrng::stats::kernels {

namespace {

namespace wo = support::wordops;

/// Counts of all overlapping m-bit patterns over the cyclic sequence,
/// indexed by the LSB-first pattern value: counts[bit_reverse(v, m)] is the
/// count of MSB-first pattern v.
std::vector<std::uint32_t> pattern_counts(const BitStream& bits,
                                          std::size_t m) {
  std::vector<std::uint32_t> counts(std::size_t{1} << m, 0);
  const std::size_t n = bits.size();
  if (m == 0 || n == 0) return counts;
  const std::uint64_t mask = (std::uint64_t{1} << m) - 1;
  if (n < m) {
    // Degenerate sizes: every window wraps around the sequence.
    std::uint64_t window = 0;
    for (std::size_t i = 0; i + 1 < m; ++i) {
      window = (window >> 1) | (std::uint64_t{bits[i % n]} << (m - 1));
    }
    for (std::size_t i = 0; i < n; ++i) {
      window = (window >> 1) |
               (std::uint64_t{bits[(i + m - 1) % n]} << (m - 1));
      ++counts[window & mask];
    }
    return counts;
  }
  std::uint64_t window = bits.chunk64(0) & mask;
  ++counts[window];
  // Windows 1 .. n-m draw their incoming bit from the stream directly.
  std::uint64_t reg = 0;
  std::size_t reg_left = 0;
  std::size_t next = m;
  for (std::size_t i = 1; i + m <= n; ++i) {
    if (reg_left == 0) {
      reg = bits.chunk64(next);
      reg_left = 64;
    }
    window = (window >> 1) | ((reg & 1u) << (m - 1));
    reg >>= 1;
    --reg_left;
    ++next;
    ++counts[window];
  }
  // The last m-1 windows wrap around to the front of the sequence.
  for (std::size_t i = n - m + 1; i < n; ++i) {
    const std::uint64_t bit = bits[(i + m - 1) % n] ? 1u : 0u;
    window = (window >> 1) | (bit << (m - 1));
    ++counts[window];
  }
  return counts;
}

}  // namespace

double pattern_square_sum(const BitStream& bits, std::size_t m) {
  const auto counts = pattern_counts(bits, m);
  double sum = 0.0;
  for (std::size_t v = 0; v < counts.size(); ++v) {
    const std::uint32_t c =
        counts[wo::bit_reverse(v, static_cast<unsigned>(m))];
    sum += static_cast<double>(c) * static_cast<double>(c);
  }
  return sum;
}

double pattern_entropy_sum(const BitStream& bits, std::size_t m) {
  const double n = static_cast<double>(bits.size());
  const auto counts = pattern_counts(bits, m);
  double sum = 0.0;
  for (std::size_t v = 0; v < counts.size(); ++v) {
    const std::uint32_t c =
        counts[wo::bit_reverse(v, static_cast<unsigned>(m))];
    if (c > 0) {
      const double p = static_cast<double>(c) / n;
      sum += p * std::log(p);
    }
  }
  return sum;
}

}  // namespace dhtrng::stats::kernels

namespace dhtrng::stats::sp800_22 {

using support::igamc;

namespace {

double psi_squared(const BitStream& bits, std::size_t m) {
  if (m == 0) return 0.0;
  const double n = static_cast<double>(bits.size());
  return kernels::pattern_square_sum(bits, m) *
             std::pow(2.0, static_cast<double>(m)) / n -
         n;
}

double phi(const BitStream& bits, std::size_t m) {
  if (m == 0) return 0.0;
  return kernels::pattern_entropy_sum(bits, m);
}

}  // namespace

TestResult serial(const BitStream& bits, std::size_t block_len) {
  const std::size_t m = block_len;
  const double psi_m = psi_squared(bits, m);
  const double psi_m1 = psi_squared(bits, m - 1);
  const double psi_m2 = psi_squared(bits, m - 2);
  const double d1 = psi_m - psi_m1;
  const double d2 = psi_m - 2.0 * psi_m1 + psi_m2;
  const double p1 =
      igamc(std::pow(2.0, static_cast<double>(m) - 2.0), d1 / 2.0);
  const double p2 =
      igamc(std::pow(2.0, static_cast<double>(m) - 3.0), d2 / 2.0);
  return {"Serial", {p1, p2}};
}

TestResult approximate_entropy(const BitStream& bits, std::size_t block_len) {
  const std::size_t m = block_len;
  const double n = static_cast<double>(bits.size());
  const double apen = phi(bits, m) - phi(bits, m + 1);
  const double chi2 = 2.0 * n * (std::log(2.0) - apen);
  const double p =
      igamc(std::pow(2.0, static_cast<double>(m) - 1.0), chi2 / 2.0);
  return {"ApproximateEntropy", {p}};
}

}  // namespace dhtrng::stats::sp800_22
