#include "stats/ais31.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "stats/kernels.h"

namespace dhtrng::stats::kernels {

TransitionCounts transition_counts(const BitStream& bits, std::size_t begin,
                                   std::size_t pairs) {
  // 64 pairs per popcount round.
  std::uint64_t t11 = 0, t10 = 0, t01 = 0;
  for (std::size_t i = 0; i < pairs; i += 64) {
    const std::uint64_t a = bits.chunk64(begin + i);
    const std::uint64_t b = bits.chunk64(begin + i + 1);
    const std::size_t valid = std::min<std::size_t>(64, pairs - i);
    const std::uint64_t vm =
        valid == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << valid) - 1;
    t11 += static_cast<unsigned>(std::popcount(a & b & vm));
    t10 += static_cast<unsigned>(std::popcount(a & ~b & vm));
    t01 += static_cast<unsigned>(std::popcount(~a & b & vm));
  }
  return {{{pairs - t11 - t10 - t01, t01}, {t10, t11}}};
}

bool blocks_distinct(const BitStream& bits, std::size_t blocks,
                     std::size_t block_bits) {
  // The block value is only a set key: the LSB-first read is a bijective
  // remap of the MSB-first value, so two blocks collide under one
  // convention exactly when they collide under the other.
  const std::uint64_t mask = block_bits == 64
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << block_bits) - 1;
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(blocks * 2);
  for (std::size_t b = 0; b < blocks; ++b) {
    if (!seen.insert(bits.chunk64(b * block_bits) & mask).second) return false;
  }
  return true;
}

double coron_g_sum(const BitStream& bits, std::size_t init, std::size_t test,
                   const std::vector<double>& g) {
  // The byte value is only a table key (like Maurer's universal test): the
  // LSB-first read permutes `last[]` slots without changing any distance
  // b + 1 - last[v], so the g-sum's operation sequence is intact.
  std::array<std::size_t, 256> last{};
  const auto block = [&](std::size_t b) {
    return static_cast<std::size_t>(bits.chunk64(b * 8) & 0xff);
  };
  for (std::size_t b = 0; b < init; ++b) last[block(b)] = b + 1;
  double sum = 0.0;
  for (std::size_t b = init; b < init + test; ++b) {
    const std::size_t v = block(b);
    sum += g[b + 1 - last[v]];
    last[v] = b + 1;
  }
  return sum;
}

}  // namespace dhtrng::stats::kernels

namespace dhtrng::stats::ais31 {

namespace {

constexpr std::size_t kT0Blocks = 1u << 16;
constexpr std::size_t kT0BlockBits = 48;
constexpr std::size_t kSeqBits = 20000;
constexpr std::size_t kSequences = 257;
constexpr std::size_t kT6Bits = 100000;
constexpr std::size_t kT7Bits = 100000;
constexpr std::size_t kT8Blocks = 2560 + 256000;  // Q + K 8-bit blocks

}  // namespace

std::size_t required_bits() {
  return kT0Blocks * kT0BlockBits + kSequences * kSeqBits + kT6Bits +
         kT7Bits + kT8Blocks * 8;
}

bool t0_disjointness(const BitStream& bits) {
  return kernels::blocks_distinct(bits, kT0Blocks, kT0BlockBits);
}

bool t1_monobit(const BitStream& seq) {
  const std::size_t ones = seq.count_ones(0, kSeqBits);
  return ones > 9654 && ones < 10346;
}

bool t2_poker(const BitStream& seq) {
  // The counts are integers, so their sum of squares is exact in a double.
  const double sum =
      static_cast<double>(kernels::nibble_square_sum(seq, kSeqBits / 4));
  const double x = (16.0 / 5000.0) * sum - 5000.0;
  return x > 1.03 && x < 57.4;
}

bool t3_runs(const BitStream& seq) {
  // Allowed intervals per run length (1..5, >=6), identical for runs of 0s
  // and runs of 1s.
  static constexpr std::array<std::pair<std::size_t, std::size_t>, 6> kBounds =
      {{{2267, 2733}, {1079, 1421}, {502, 748}, {223, 402}, {90, 223},
        {90, 223}}};
  const kernels::RunHistogram counts = kernels::run_histogram(seq, kSeqBits);
  for (const auto& side : counts) {
    for (std::size_t l = 0; l < 6; ++l) {
      if (side[l] < kBounds[l].first || side[l] > kBounds[l].second) {
        return false;
      }
    }
  }
  return true;
}

bool t4_long_run(const BitStream& seq) {
  return kernels::longest_run(seq, kSeqBits) < 34;
}

bool t5_autocorrelation(const BitStream& seq) {
  // AIS-31 T5: on the first 10000 bits, find the shift tau in 1..5000 whose
  // 5000-term autocorrelation Z_tau deviates most from 2500; then re-test
  // that tau on the second 10000 bits with acceptance 2326 < Z < 2674.
  constexpr std::size_t kHalf = 10000;
  constexpr std::size_t kTerms = 5000;
  std::size_t worst_tau = 1;
  std::size_t worst_dev = 0;
  for (std::size_t tau = 1; tau <= 5000; ++tau) {
    const std::size_t z = seq.hamming_distance(0, tau, kTerms);
    const std::size_t dev =
        z >= kTerms / 2 ? z - kTerms / 2 : kTerms / 2 - z;
    if (dev > worst_dev) {
      worst_dev = dev;
      worst_tau = tau;
    }
  }
  const std::size_t z =
      seq.hamming_distance(kHalf, kHalf + worst_tau, kTerms);
  return z > 2326 && z < 2674;
}

bool t6_uniform_distribution(const BitStream& bits, std::string* detail) {
  // Parameter sets (1, 100000, 0.025) and (2, 100000, 0.02): the marginal
  // and the conditional one-step distributions must be near-uniform.
  const double n = static_cast<double>(kT6Bits);
  const double p1 = static_cast<double>(bits.count_ones(0, kT6Bits)) / n;
  const kernels::TransitionCounts t =
      kernels::transition_counts(bits, 0, kT6Bits - 1);
  std::array<std::array<double, 2>, 2> trans{};
  for (std::size_t a = 0; a < 2; ++a) {
    for (std::size_t b = 0; b < 2; ++b) {
      trans[a][b] = static_cast<double>(t[a][b]);
    }
  }
  const double p1_given_0 = trans[0][1] / std::max(trans[0][0] + trans[0][1], 1.0);
  const double p1_given_1 = trans[1][1] / std::max(trans[1][0] + trans[1][1], 1.0);
  const bool pass = std::abs(p1 - 0.5) < 0.025 &&
                    std::abs(p1_given_0 - 0.5) < 0.02 &&
                    std::abs(p1_given_1 - 0.5) < 0.02;
  if (detail != nullptr) {
    *detail = "P(1)=" + std::to_string(p1) +
              " P(1|0)=" + std::to_string(p1_given_0) +
              " P(1|1)=" + std::to_string(p1_given_1);
  }
  return pass;
}

bool t7_homogeneity(const BitStream& bits, std::string* detail) {
  // Comparative test of the transition distributions between the two
  // halves of the T7 slice (chi-square test of homogeneity; the AIS-31
  // threshold 15.13 corresponds to alpha = 0.0001 at 1 df per transition).
  const std::size_t half = kT7Bits / 2;
  std::array<std::array<std::array<double, 2>, 2>, 2> trans{};
  for (std::size_t h = 0; h < 2; ++h) {
    const kernels::TransitionCounts t =
        kernels::transition_counts(bits, h * half, half - 1);
    for (std::size_t a = 0; a < 2; ++a) {
      for (std::size_t b = 0; b < 2; ++b) {
        trans[h][a][b] = static_cast<double>(t[a][b]);
      }
    }
  }
  double worst = 0.0;
  for (std::size_t from = 0; from < 2; ++from) {
    const double n0 = trans[0][from][0] + trans[0][from][1];
    const double n1 = trans[1][from][0] + trans[1][from][1];
    if (n0 == 0.0 || n1 == 0.0) return false;
    double chi2 = 0.0;
    for (std::size_t to = 0; to < 2; ++to) {
      const double pooled =
          (trans[0][from][to] + trans[1][from][to]) / (n0 + n1);
      if (pooled <= 0.0 || pooled >= 1.0) continue;
      const double e0 = n0 * pooled;
      const double e1 = n1 * pooled;
      chi2 += (trans[0][from][to] - e0) * (trans[0][from][to] - e0) / e0;
      chi2 += (trans[1][from][to] - e1) * (trans[1][from][to] - e1) / e1;
    }
    worst = std::max(worst, chi2);
  }
  if (detail != nullptr) *detail = "max chi2 = " + std::to_string(worst);
  return worst < 15.13;
}

bool t8_entropy(const BitStream& bits, double* statistic) {
  // Coron's entropy test: L = 8, Q = 2560, K = 256000; pass if f > 7.976.
  constexpr std::size_t kQ = 2560;
  constexpr std::size_t kK = 256000;
  // Coron's g(j) = (1/ln 2) * sum_{k=1}^{j-1} 1/k; precompute lazily.
  std::vector<double> g(kQ + kK + 2, 0.0);
  double harmonic = 0.0;
  for (std::size_t j = 1; j < g.size(); ++j) {
    g[j] = harmonic / std::numbers::ln2;
    harmonic += 1.0 / static_cast<double>(j);
  }
  const double sum = kernels::coron_g_sum(bits, kQ, kK, g);
  const double f = sum / static_cast<double>(kK);
  if (statistic != nullptr) *statistic = f;
  return f > 7.976;
}

std::vector<TestOutcome> run_all(const BitStream& bits) {
  if (bits.size() < required_bits()) {
    throw std::invalid_argument("ais31::run_all: need " +
                                std::to_string(required_bits()) + " bits");
  }
  std::vector<TestOutcome> out;
  std::size_t cursor = 0;

  {
    const BitStream t0 = bits.slice(cursor, kT0Blocks * kT0BlockBits);
    cursor += kT0Blocks * kT0BlockBits;
    const bool pass = t0_disjointness(t0);
    out.push_back({"Disjointness Test (T0)", pass, pass ? 1.0 : 0.0, ""});
  }

  std::array<std::size_t, 5> passes{};
  for (std::size_t s = 0; s < kSequences; ++s) {
    const BitStream seq = bits.slice(cursor, kSeqBits);
    cursor += kSeqBits;
    if (t1_monobit(seq)) ++passes[0];
    if (t2_poker(seq)) ++passes[1];
    if (t3_runs(seq)) ++passes[2];
    if (t4_long_run(seq)) ++passes[3];
    if (t5_autocorrelation(seq)) ++passes[4];
  }
  const char* names[5] = {"Monobit Tests (T1)", "Poker Tests (T2)",
                          "Run Tests (T3)", "Long Run Test (T4)",
                          "Autocorrelation Test (T5)"};
  for (std::size_t t = 0; t < 5; ++t) {
    const double rate =
        static_cast<double>(passes[t]) / static_cast<double>(kSequences);
    // AIS-31 tolerates one retry; we require a >= 99.5% per-sequence rate.
    out.push_back({names[t], rate >= 0.995, rate, ""});
  }

  {
    std::string detail;
    const BitStream t6 = bits.slice(cursor, kT6Bits);
    cursor += kT6Bits;
    const bool pass = t6_uniform_distribution(t6, &detail);
    out.push_back(
        {"Uniform Distribution Test (T6)", pass, pass ? 1.0 : 0.0, detail});
  }
  {
    std::string detail;
    const BitStream t7 = bits.slice(cursor, kT7Bits);
    cursor += kT7Bits;
    const bool pass = t7_homogeneity(t7, &detail);
    out.push_back(
        {"Multinomial Distributions (T7)", pass, pass ? 1.0 : 0.0, detail});
  }
  {
    double f = 0.0;
    const BitStream t8 = bits.slice(cursor, kT8Blocks * 8);
    const bool pass = t8_entropy(t8, &f);
    out.push_back({"Entropy Test (T8)", pass, pass ? 1.0 : 0.0,
                   "f = " + std::to_string(f)});
  }
  return out;
}

}  // namespace dhtrng::stats::ais31
