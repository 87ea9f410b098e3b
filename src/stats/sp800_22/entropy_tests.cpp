// SP 800-22 sections 2.11 and 2.12: Serial and Approximate Entropy.
// Both count overlapping m-bit patterns on the cyclically extended sequence.
//
// The kernels slide an MSB-first window register fed from 64-bit chunks, so
// the count array is indexed by the pattern value itself and both sums
// visit it in MSB-first pattern order, the specification's sequence.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/kernels.h"
#include "stats/sp800_22.h"
#include "support/special_functions.h"
#include "support/wordops.h"

namespace dhtrng::stats::kernels {

namespace {

/// Counts of all overlapping m-bit patterns over the cyclic sequence,
/// indexed by the MSB-first pattern value.
std::vector<std::uint32_t> pattern_counts(const BitStream& bits,
                                          std::size_t m) {
  std::vector<std::uint32_t> counts(std::size_t{1} << m, 0);
  const std::size_t n = bits.size();
  if (m == 0 || n == 0) return counts;
  const std::uint64_t mask = (std::uint64_t{1} << m) - 1;
  // Window i covers bits i .. i+m-1 of the cyclic extension, the last one
  // least significant; prime it with the first m-1 bits.
  std::uint64_t window = 0;
  for (std::size_t j = 0; j + 1 < m; ++j) {
    window = (window << 1) | (bits[j % n] ? 1u : 0u);
  }
  // Windows whose last bit lies in the stream (none when n < m).
  window = support::wordops::feed_msb_first(
      bits, m - 1, n, window, mask,
      [&](std::uint64_t w) { ++counts[w]; });
  // The remaining windows wrap around to the front of the sequence.
  for (std::size_t j = std::max(m - 1, n); j < n + m - 1; ++j) {
    window = ((window << 1) | (bits[(j - n) % n] ? 1u : 0u)) & mask;
    ++counts[window];
  }
  return counts;
}

}  // namespace

double pattern_square_sum(const BitStream& bits, std::size_t m) {
  double sum = 0.0;
  for (std::uint32_t c : pattern_counts(bits, m)) {
    sum += static_cast<double>(c) * static_cast<double>(c);
  }
  return sum;
}

double pattern_entropy_sum(const BitStream& bits, std::size_t m) {
  const double n = static_cast<double>(bits.size());
  double sum = 0.0;
  for (std::uint32_t c : pattern_counts(bits, m)) {
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
