// SP 800-22 sections 2.7-2.9: Non-overlapping Template Matching,
// Overlapping Template Matching, and Maurer's Universal Statistical test.
//
// The kernels read windows straight out of the packed words (chunk64 /
// rolling-register extraction) and key lookup tables by the LSB-first
// window value instead of the specification's MSB-first value.  That remap
// is a pure permutation of table slots: occurrence lists, match counts and
// last-seen distances are identical, so every statistic — and every
// floating-point operation sequence downstream — is unchanged.
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "stats/kernels.h"
#include "stats/sp800_22.h"
#include "support/special_functions.h"

namespace dhtrng::stats::kernels {

namespace {

/// Bucket every window position by its LSB-first m-bit value.
std::vector<std::vector<std::uint32_t>> window_positions(
    const BitStream& bits, std::size_t m) {
  const std::size_t n = bits.size();
  std::vector<std::vector<std::uint32_t>> positions(std::size_t{1} << m);
  if (n < m) return positions;
  const std::uint64_t mask = (std::uint64_t{1} << m) - 1;
  // 64 window values per pair of words, branchlessly: the window at
  // base + j is ((w0 >> j) | (w1 << (64 - j))) & mask.
  const std::size_t last = n - m;  // last window position
  for (std::size_t base = 0; base <= last; base += 64) {
    const std::uint64_t w0 = bits.chunk64(base);
    const std::uint64_t w1 = bits.chunk64(base + 64);
    positions[w0 & mask].push_back(static_cast<std::uint32_t>(base));
    const std::size_t count = std::min<std::size_t>(64, last - base + 1);
    for (std::size_t j = 1; j < count; ++j) {
      const std::uint64_t v = ((w0 >> j) | (w1 << (64 - j))) & mask;
      positions[v].push_back(static_cast<std::uint32_t>(base + j));
    }
  }
  return positions;
}

/// Matches at 64 positions at once: bit i of AND_t chunk64(q + t) is set iff
/// the template_len window starting at q + i is all ones.  Windows may read
/// past the block end inside chunk64, but only positions within the block's
/// window range are counted, and those windows lie entirely in the block.
std::size_t overlapping_matches_at(const BitStream& bits, std::size_t base,
                                   std::size_t block_len,
                                   std::size_t template_len) {
  const std::size_t window_count = block_len - template_len + 1;
  std::size_t matches = 0;
  for (std::size_t g = 0; g < window_count; g += 64) {
    std::uint64_t m64 = ~0ULL;
    for (std::size_t t = 0; t < template_len; ++t) {
      m64 &= bits.chunk64(base + g + t);
    }
    const std::size_t valid = std::min<std::size_t>(64, window_count - g);
    if (valid < 64) m64 &= (1ULL << valid) - 1;
    matches += static_cast<std::size_t>(std::popcount(m64));
  }
  return matches;
}

}  // namespace

std::vector<std::array<std::size_t, kTemplateBlocks>> non_overlapping_counts(
    const BitStream& bits, std::size_t template_len) {
  const std::size_t m = template_len;
  const std::size_t block_len = bits.size() / kTemplateBlocks;
  const auto& templates = sp800_22::aperiodic_templates_cached(m);
  std::vector<std::array<std::size_t, kTemplateBlocks>> counts(
      templates.size());
  if (block_len < m) return counts;
  // Bucket every window position by its m-bit value; each template's
  // occurrence list is then one bucket, and greedy non-overlapping counting
  // walks it once.  Total work is O(n + sum of bucket sizes) = O(n).
  const std::vector<std::vector<std::uint32_t>> positions =
      window_positions(bits, m);
  for (std::size_t k = 0; k < templates.size(); ++k) {
    const auto& tpl = templates[k];
    std::uint32_t value = 0;  // LSB-first, matching the bucket keys
    for (std::size_t t = 0; t < tpl.size(); ++t) {
      value |= (tpl[t] ? 1u : 0u) << t;
    }
    std::array<std::size_t, kTemplateBlocks>& w = counts[k];
    std::size_t last_end = 0;  // next allowed start within the current block
    std::size_t last_block = kTemplateBlocks;  // sentinel
    for (std::uint32_t pos : positions[value]) {
      const std::size_t block = pos / block_len;
      if (block >= kTemplateBlocks) break;
      // The STS scans i in [0, M-m] inside each block; windows spanning a
      // boundary do not count.
      if (pos % block_len > block_len - m) continue;
      if (block != last_block) {
        last_block = block;
        last_end = pos;
      }
      if (pos >= last_end) {
        ++w[block];
        last_end = pos + m;
      }
    }
  }
  return counts;
}

std::vector<std::size_t> overlapping_block_matches(const BitStream& bits,
                                                   std::size_t block_len,
                                                   std::size_t template_len) {
  std::vector<std::size_t> matches(bits.size() / block_len);
  for (std::size_t b = 0; b < matches.size(); ++b) {
    matches[b] = overlapping_matches_at(bits, b * block_len, block_len,
                                        template_len);
  }
  return matches;
}

}  // namespace dhtrng::stats::kernels

namespace dhtrng::stats::sp800_22 {

using support::erfc;
using support::igamc;

TestResult non_overlapping_template(const BitStream& bits,
                                    std::size_t template_len) {
  const std::size_t n = bits.size();
  constexpr std::size_t kBlocks = kernels::kTemplateBlocks;
  const std::size_t block_len = n / kBlocks;
  const std::size_t m = template_len;
  if (block_len < m) return {"NonOverlappingTemplate", {}, false};

  const double md = static_cast<double>(block_len);
  const double mu = (md - static_cast<double>(m) + 1.0) /
                    std::pow(2.0, static_cast<double>(m));
  const double sigma2 =
      md * (1.0 / std::pow(2.0, static_cast<double>(m)) -
            (2.0 * static_cast<double>(m) - 1.0) /
                std::pow(2.0, 2.0 * static_cast<double>(m)));

  TestResult result{"NonOverlappingTemplate", {}};
  for (const auto& w : kernels::non_overlapping_counts(bits, m)) {
    double chi2 = 0.0;
    for (std::size_t b = 0; b < kBlocks; ++b) {
      const double d = static_cast<double>(w[b]) - mu;
      chi2 += d * d / sigma2;
    }
    result.p_values.push_back(
        igamc(static_cast<double>(kBlocks) / 2.0, chi2 / 2.0));
  }
  return result;
}

TestResult overlapping_template(const BitStream& bits,
                                std::size_t template_len) {
  const std::size_t n = bits.size();
  constexpr std::size_t kBlockLen = 1032;
  constexpr std::size_t kK = 5;
  // Class probabilities for m = 9, M = 1032 (lambda ~ 2), from the STS.
  static constexpr std::array<double, kK + 1> kPi = {
      0.364091, 0.185659, 0.139381, 0.100571, 0.070432, 0.139865};
  const std::size_t blocks = n / kBlockLen;
  if (blocks == 0 || template_len > kBlockLen) {
    return {"OverlappingTemplate", {}, false};
  }
  std::array<std::size_t, kK + 1> nu{};
  for (std::size_t matches :
       kernels::overlapping_block_matches(bits, kBlockLen, template_len)) {
    ++nu[std::min(matches, kK)];
  }
  double chi2 = 0.0;
  for (std::size_t c = 0; c <= kK; ++c) {
    const double expected = static_cast<double>(blocks) * kPi[c];
    const double d = static_cast<double>(nu[c]) - expected;
    chi2 += d * d / expected;
  }
  return {"OverlappingTemplate",
          {igamc(static_cast<double>(kK) / 2.0, chi2 / 2.0)}};
}

TestResult universal(const BitStream& bits) {
  const std::size_t n = bits.size();
  // Block length selection thresholds and the expected value / variance
  // table from SP 800-22 section 2.9.
  struct Row { std::size_t min_n; std::size_t l; double expected; double var; };
  static constexpr std::array<Row, 11> kTable = {{
      {387840, 6, 5.2177052, 2.954},
      {904960, 7, 6.1962507, 3.125},
      {2068480, 8, 7.1836656, 3.238},
      {4654080, 9, 8.1764248, 3.311},
      {10342400, 10, 9.1723243, 3.356},
      {22753280, 11, 10.170032, 3.384},
      {49643520, 12, 11.168765, 3.401},
      {107560960, 13, 12.168070, 3.410},
      {231669760, 14, 13.167693, 3.416},
      {496435200, 15, 14.167488, 3.419},
      {1059061760, 16, 15.167379, 3.421},
  }};
  std::size_t l = 0;
  double expected = 0.0, var = 0.0;
  for (const Row& row : kTable) {
    if (n >= row.min_n) {
      l = row.l;
      expected = row.expected;
      var = row.var;
    }
  }
  if (l == 0) return {"Universal", {}, false};

  const std::size_t q = 10 * (std::size_t{1} << l);
  const std::size_t k = n / l - q;
  const double sum = kernels::log2_distance_sums(bits, l, q, k).sum;
  const double fn = sum / static_cast<double>(k);
  const double c = 0.7 - 0.8 / static_cast<double>(l) +
                   (4.0 + 32.0 / static_cast<double>(l)) *
                       std::pow(static_cast<double>(k),
                                -3.0 / static_cast<double>(l)) /
                       15.0;
  const double sigma = c * std::sqrt(var / static_cast<double>(k));
  return {"Universal",
          {erfc(std::abs(fn - expected) / (std::sqrt(2.0) * sigma))}};
}

}  // namespace dhtrng::stats::sp800_22
