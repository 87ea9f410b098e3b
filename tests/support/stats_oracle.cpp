#include "support/stats_oracle.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <numbers>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "stats/sp800_22.h"
#include "support/fft.h"
#include "support/gf2.h"

namespace dhtrng::stats::oracle {

// ---- Shared by several suites --------------------------------------------

kernels::TransitionCounts transition_counts(const BitStream& bits,
                                            std::size_t begin,
                                            std::size_t pairs) {
  kernels::TransitionCounts t{};
  for (std::size_t i = begin; i < begin + pairs; ++i) {
    ++t[bits[i] ? 1u : 0u][bits[i + 1] ? 1u : 0u];
  }
  return t;
}

kernels::RunHistogram run_histogram(const BitStream& bits, std::size_t len) {
  kernels::RunHistogram counts{};
  std::size_t run = 1;
  for (std::size_t i = 1; i <= len; ++i) {
    if (i < len && bits[i] == bits[i - 1]) {
      ++run;
    } else {
      ++counts[bits[i - 1] ? 1u : 0u][std::min<std::size_t>(run, 6) - 1];
      run = 1;
    }
  }
  return counts;
}

std::size_t longest_run(const BitStream& bits, std::size_t len) {
  std::size_t longest = len > 0 ? 1 : 0;
  std::size_t run = 1;
  for (std::size_t i = 1; i < len; ++i) {
    run = bits[i] == bits[i - 1] ? run + 1 : 1;
    longest = std::max(longest, run);
  }
  return longest;
}

std::uint64_t nibble_square_sum(const BitStream& bits, std::size_t nibbles) {
  std::array<std::uint64_t, 16> f{};
  for (std::size_t i = 0; i < nibbles; ++i) ++f[bits.word(4 * i, 4)];
  std::uint64_t sum = 0;
  for (std::uint64_t c : f) sum += c * c;
  return sum;
}

kernels::Log2DistanceSums log2_distance_sums(const BitStream& bits,
                                             std::size_t block_bits,
                                             std::size_t init,
                                             std::size_t test) {
  const auto block_value = [&](std::size_t b) {
    std::size_t v = 0;
    for (std::size_t j = 0; j < block_bits; ++j) {
      v = (v << 1) | (bits[b * block_bits + j] ? 1u : 0u);
    }
    return v;
  };
  std::vector<std::size_t> last(std::size_t{1} << block_bits, 0);
  for (std::size_t b = 0; b < init; ++b) last[block_value(b)] = b + 1;
  kernels::Log2DistanceSums sums;
  for (std::size_t b = init; b < init + test; ++b) {
    const std::size_t v = block_value(b);
    const double lg = std::log2(static_cast<double>(b + 1 - last[v]));
    sums.sum += lg;
    sums.sum_sq += lg * lg;
    last[v] = b + 1;
  }
  return sums;
}

// ---- SP 800-22 -------------------------------------------------------------

long long cusum_peak(const BitStream& bits, bool forward) {
  const std::size_t n = bits.size();
  long long s = 0;
  long long z = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool bit = forward ? bits[i] : bits[n - 1 - i];
    s += bit ? 1 : -1;
    z = std::max(z, std::llabs(s));
  }
  return z;
}

std::size_t runs_count(const BitStream& bits) {
  std::size_t v = 1;
  for (std::size_t i = 1; i < bits.size(); ++i) {
    if (bits[i] != bits[i - 1]) ++v;
  }
  return v;
}

std::vector<std::size_t> block_longest_ones(const BitStream& bits,
                                            std::size_t m) {
  std::vector<std::size_t> out(bits.size() / m);
  for (std::size_t b = 0; b < out.size(); ++b) {
    std::size_t longest = 0, run = 0;
    for (std::size_t i = 0; i < m; ++i) {
      run = bits[b * m + i] ? run + 1 : 0;
      longest = std::max(longest, run);
    }
    out[b] = longest;
  }
  return out;
}

kernels::RankCounts rank_counts(const BitStream& bits) {
  constexpr std::size_t kM = 32;
  kernels::RankCounts counts;
  counts.matrices = bits.size() / (kM * kM);
  for (std::size_t m = 0; m < counts.matrices; ++m) {
    support::Gf2Matrix mat(kM, kM);
    for (std::size_t r = 0; r < kM; ++r) {
      for (std::size_t c = 0; c < kM; ++c) {
        mat.set(r, c, bits[(m * kM + r) * kM + c]);
      }
    }
    const std::size_t rk = mat.rank();
    if (rk == kM) ++counts.full;
    else if (rk == kM - 1) ++counts.minus1;
  }
  return counts;
}

std::size_t dft_below_threshold(const std::vector<double>& x,
                                double threshold) {
  std::size_t below = 0;
  for (double m : support::real_dft_magnitudes(x)) {
    if (m < threshold) ++below;
  }
  return below;
}

std::vector<std::array<std::size_t, kernels::kTemplateBlocks>>
non_overlapping_counts(const BitStream& bits, std::size_t template_len) {
  constexpr std::size_t kBlocks = kernels::kTemplateBlocks;
  const std::size_t m = template_len;
  const std::size_t block_len = bits.size() / kBlocks;
  const auto& templates = sp800_22::aperiodic_templates_cached(m);
  std::vector<std::array<std::size_t, kBlocks>> counts(templates.size());
  if (block_len < m) return counts;
  // The STS scan: in each block, a match at i counts and skips the window.
  for (std::size_t t = 0; t < templates.size(); ++t) {
    for (std::size_t j = 0; j < kBlocks; ++j) {
      const std::size_t base = j * block_len;
      std::size_t i = 0;
      while (i + m <= block_len) {
        std::size_t k = 0;
        while (k < m && bits[base + i + k] == templates[t][k]) ++k;
        if (k == m) {
          ++counts[t][j];
          i += m;
        } else {
          ++i;
        }
      }
    }
  }
  return counts;
}

std::vector<std::size_t> overlapping_block_matches(const BitStream& bits,
                                                   std::size_t block_len,
                                                   std::size_t template_len) {
  std::vector<std::size_t> out(bits.size() / block_len);
  for (std::size_t b = 0; b < out.size(); ++b) {
    std::size_t run = 0;
    for (std::size_t i = 0; i < block_len; ++i) {
      run = bits[b * block_len + i] ? run + 1 : 0;
      if (run >= template_len) ++out[b];  // overlapping all-ones matches
    }
  }
  return out;
}

namespace {

/// Counts of the overlapping m-bit patterns of the cyclic sequence,
/// indexed by the MSB-first pattern value.
std::vector<std::uint32_t> pattern_counts(const BitStream& bits,
                                          std::size_t m) {
  std::vector<std::uint32_t> counts(std::size_t{1} << m, 0);
  const std::size_t n = bits.size();
  if (m == 0 || n == 0) return counts;
  const std::uint64_t mask = (std::uint64_t{1} << m) - 1;
  std::uint64_t window = 0;
  for (std::size_t i = 0; i + 1 < m; ++i) {
    window = ((window << 1) | (bits[i % n] ? 1u : 0u)) & mask;
  }
  for (std::size_t i = 0; i < n; ++i) {
    window = ((window << 1) | (bits[(i + m - 1) % n] ? 1u : 0u)) & mask;
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

kernels::WalkVisits walk_visits(const BitStream& bits) {
  kernels::WalkVisits info;
  long long s = 0;
  std::array<std::size_t, 9> cycle_visits{};  // states -4..4, this cycle
  const auto flush_cycle = [&] {
    ++info.cycles;
    for (std::size_t i = 0; i < 9; ++i) {
      if (i == 4) continue;  // state 0
      ++info.klass[i][std::min<std::size_t>(cycle_visits[i], 5)];
      cycle_visits[i] = 0;
    }
  };
  for (std::size_t i = 0; i < bits.size(); ++i) {
    s += bits[i] ? 1 : -1;
    if (s == 0) {
      flush_cycle();
      continue;
    }
    if (s >= -4 && s <= 4) ++cycle_visits[static_cast<std::size_t>(s + 4)];
    if (s >= -9 && s <= 9) ++info.total_visits[static_cast<std::size_t>(s + 9)];
  }
  if (s != 0) flush_cycle();  // the final partial cycle counts as one
  return info;
}

std::size_t linear_complexity(const BitStream& bits, std::size_t begin,
                              std::size_t len) {
  if (len == 0) return 0;
  std::vector<std::uint8_t> s(len), c(len, 0), b(len, 0), t(len);
  for (std::size_t i = 0; i < len; ++i) s[i] = bits[begin + i] ? 1 : 0;
  c[0] = b[0] = 1;
  std::size_t l = 0;
  std::size_t m = static_cast<std::size_t>(-1);  // -1; n - m wraps to n + 1
  for (std::size_t n = 0; n < len; ++n) {
    std::uint8_t d = s[n];
    for (std::size_t i = 1; i <= l; ++i) {
      d = static_cast<std::uint8_t>(d ^ (c[i] & s[n - i]));
    }
    if (d == 0) continue;
    t = c;
    const std::size_t shift = n - m;
    for (std::size_t i = 0; i + shift < len; ++i) {
      c[i + shift] ^= b[i];  // C(x) ^= B(x) * x^shift
    }
    if (2 * l <= n) {
      l = n + 1 - l;
      m = n;
      b = t;
    }
  }
  return l;
}

std::vector<std::size_t> block_linear_complexities(const BitStream& bits,
                                                   std::size_t m) {
  std::vector<std::size_t> l(bits.size() / m);
  for (std::size_t b = 0; b < l.size(); ++b) {
    l[b] = linear_complexity(bits, b * m, m);
  }
  return l;
}

// ---- SP 800-90B ------------------------------------------------------------

kernels::PredictionScore multi_mcw_score(const BitStream& bits) {
  const auto& windows = kernels::kMcwWindows;
  const std::size_t n = bits.size();
  kernels::PredictionScore global;
  if (n <= windows[0] + 1) return global;
  std::array<std::size_t, 4> ones{};
  std::array<std::size_t, 4> score{};
  for (std::size_t i = windows[0]; i < n; ++i) {
    std::array<bool, 4> pred{};
    std::size_t leader = 0;
    for (std::size_t w = 0; w < 4; ++w) {
      pred[w] = i >= windows[w] ? 2 * ones[w] >= windows[w] : pred[0];
      if (score[w] > score[leader]) leader = w;
    }
    const bool actual = bits[i];
    global.observe(pred[leader] == actual);
    for (std::size_t w = 0; w < 4; ++w) {
      if (i >= windows[w] && pred[w] == actual) ++score[w];
      if (actual) ++ones[w];
      if (i >= windows[w] && bits[i - windows[w]]) --ones[w];
    }
  }
  return global;
}

kernels::PredictionScore lag_score(const BitStream& bits) {
  const std::size_t n = bits.size();
  kernels::PredictionScore global;
  std::array<std::size_t, kernels::kLags> score{};
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t leader = 0;
    for (std::size_t d = 0; d < kernels::kLags; ++d) {
      if (score[d] > score[leader]) leader = d;
    }
    const bool actual = bits[i];
    const bool prediction = i >= leader + 1 ? bits[i - leader - 1] : false;
    global.observe(prediction == actual);
    for (std::size_t d = 0; d < kernels::kLags; ++d) {
      if (i >= d + 1 && bits[i - d - 1] == actual) ++score[d];
    }
  }
  return global;
}

kernels::TupleStats tuple_stats(const BitStream& bits, std::size_t len) {
  kernels::TupleStats st;
  const std::size_t n = bits.size();
  if (n < len) return st;
  const std::uint64_t mask = (std::uint64_t{1} << len) - 1;
  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  std::uint64_t window = 0;
  for (std::size_t i = 0; i < n; ++i) {
    window = ((window << 1) | (bits[i] ? 1u : 0u)) & mask;
    if (i + 1 >= len) ++counts[window];
  }
  std::uint64_t pairs = 0;
  for (const auto& [value, c] : counts) {
    st.max_count = std::max(st.max_count, c);
    pairs += c * (c - 1) / 2;
  }
  st.collision_pairs = static_cast<double>(pairs);
  return st;
}

double t_tuple_p_hat(const BitStream& bits) {
  const std::size_t n = bits.size();
  double p_hat = 0.0;
  for (std::size_t len = 1; len <= kernels::kMaxTupleLen; ++len) {
    const kernels::TupleStats st = tuple_stats(bits, len);
    if (st.max_count < kernels::kTupleCutoff) break;
    const double windows = static_cast<double>(n - len + 1);
    p_hat = std::max(p_hat,
                     std::pow(static_cast<double>(st.max_count) / windows,
                              1.0 / static_cast<double>(len)));
  }
  return p_hat;
}

double lrs_p_hat(const BitStream& bits) {
  const std::size_t n = bits.size();
  // u: one past the largest length with max count >= 35 (where t-Tuple
  // stops); from there until no tuple repeats.
  std::size_t u = 1;
  while (u <= kernels::kMaxTupleLen &&
         tuple_stats(bits, u).max_count >= kernels::kTupleCutoff) {
    ++u;
  }
  double p_hat = 0.0;
  for (std::size_t len = u; len <= kernels::kMaxTupleLen; ++len) {
    const double pairs = tuple_stats(bits, len).collision_pairs;
    if (pairs < 1.0) break;
    const double windows = static_cast<double>(n - len + 1);
    const double total_pairs = 0.5 * windows * (windows - 1.0);
    p_hat = std::max(p_hat, std::pow(pairs / total_pairs,
                                     1.0 / static_cast<double>(len)));
  }
  return p_hat;
}

// ---- AIS-31 ----------------------------------------------------------------

bool blocks_distinct(const BitStream& bits, std::size_t blocks,
                     std::size_t block_bits) {
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t b = 0; b < blocks; ++b) {
    if (!seen.insert(bits.word(b * block_bits, block_bits)).second) {
      return false;
    }
  }
  return true;
}

double coron_g_sum(const BitStream& bits, std::size_t init, std::size_t test,
                   const std::vector<double>& g) {
  std::array<std::size_t, 256> last{};
  for (std::size_t b = 0; b < init; ++b) last[bits.word(b * 8, 8)] = b + 1;
  double sum = 0.0;
  for (std::size_t b = init; b < init + test; ++b) {
    const std::size_t v = bits.word(b * 8, 8);
    sum += g[b + 1 - last[v]];
    last[v] = b + 1;
  }
  return sum;
}

// ---- Kernel / oracle pairs -------------------------------------------------

namespace {

using Words = KernelCase::Words;

template <class T>
void put(Words& w, const T& v) {
  using kernels::Log2DistanceSums, kernels::PredictionScore,
      kernels::RankCounts, kernels::TupleStats, kernels::WalkVisits;
  if constexpr (std::is_same_v<T, double>) {
    w.push_back(std::bit_cast<std::uint64_t>(v));
  } else if constexpr (std::is_integral_v<T>) {
    w.push_back(static_cast<std::uint64_t>(v));
  } else if constexpr (std::is_same_v<T, Log2DistanceSums>) {
    put(w, v.sum);
    put(w, v.sum_sq);
  } else if constexpr (std::is_same_v<T, RankCounts>) {
    put(w, v.matrices);
    put(w, v.full);
    put(w, v.minus1);
  } else if constexpr (std::is_same_v<T, WalkVisits>) {
    put(w, v.cycles);
    put(w, v.klass);
    put(w, v.total_visits);
  } else if constexpr (std::is_same_v<T, TupleStats>) {
    put(w, v.max_count);
    put(w, v.collision_pairs);
  } else if constexpr (std::is_same_v<T, PredictionScore>) {
    put(w, v.correct);
    put(w, v.total);
    put(w, v.run);
    put(w, v.longest_run);
  } else {  // std::array or std::vector
    w.push_back(v.size());
    for (const auto& x : v) put(w, x);
  }
}

template <class T>
Words words(const T& v) {
  Words w;
  put(w, v);
  return w;
}

// Parameters the suites derive from the stream length.
std::size_t universal_l(const BitStream& b) {
  return b.size() >= 904960 ? 7 : 6;
}
std::size_t universal_q(const BitStream& b) {
  return 10 * (std::size_t{1} << universal_l(b));
}
std::size_t universal_k(const BitStream& b) {
  const std::size_t blocks = b.size() / universal_l(b);
  return blocks > universal_q(b) ? blocks - universal_q(b) : 0;
}
std::size_t compression_k(const BitStream& b) {
  return b.size() / 6 > 1000 ? b.size() / 6 - 1000 : 0;
}
std::vector<double> plus_minus_one(const BitStream& b) {
  std::vector<double> x(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) x[i] = b[i] ? 1.0 : -1.0;
  return x;
}
double dft_threshold(const BitStream& b) {
  return std::sqrt(std::log(1.0 / 0.05) * static_cast<double>(b.size()));
}
std::size_t coron_q(const BitStream& b) {
  return std::min<std::size_t>(2560, b.size() / 16);
}
std::size_t coron_k(const BitStream& b) { return b.size() / 8 - coron_q(b); }
std::vector<double> coron_g(const BitStream& b) {
  std::vector<double> g(b.size() / 8 + 2, 0.0);
  double harmonic = 0.0;
  for (std::size_t j = 1; j < g.size(); ++j) {
    g[j] = harmonic / std::numbers::ln2;
    harmonic += 1.0 / static_cast<double>(j);
  }
  return g;
}

// `call` is evaluated once as kernels::call and once as oracle::call, with
// the stream bound to `b`.
#define DHTRNG_KERNEL_CASE(suite, name, call)                   \
  KernelCase {                                                  \
    name, suite,                                                \
        [](const BitStream& b) { return words(kernels::call); }, \
        [](const BitStream& b) { return words(oracle::call); }  \
  }

}  // namespace

const std::vector<KernelCase>& kernel_cases() {
  static const std::vector<KernelCase> cases = {
      DHTRNG_KERNEL_CASE("sp800_22", "cusum_peak fwd", cusum_peak(b, true)),
      DHTRNG_KERNEL_CASE("sp800_22", "cusum_peak bwd", cusum_peak(b, false)),
      DHTRNG_KERNEL_CASE("sp800_22", "runs_count", runs_count(b)),
      DHTRNG_KERNEL_CASE("sp800_22", "block_longest_ones 8",
                         block_longest_ones(b, 8)),
      DHTRNG_KERNEL_CASE("sp800_22", "block_longest_ones 128",
                         block_longest_ones(b, 128)),
      DHTRNG_KERNEL_CASE("sp800_22", "block_longest_ones 10000",
                         block_longest_ones(b, 10000)),
      DHTRNG_KERNEL_CASE("sp800_22", "rank_counts", rank_counts(b)),
      DHTRNG_KERNEL_CASE("sp800_22", "dft_below_threshold",
                         dft_below_threshold(plus_minus_one(b),
                                             dft_threshold(b))),
      DHTRNG_KERNEL_CASE("sp800_22", "non_overlapping_counts",
                         non_overlapping_counts(b, 9)),
      DHTRNG_KERNEL_CASE("sp800_22", "overlapping_block_matches",
                         overlapping_block_matches(b, 1032, 9)),
      DHTRNG_KERNEL_CASE("sp800_22", "log2_distance_sums universal",
                         log2_distance_sums(b, universal_l(b), universal_q(b),
                                            universal_k(b))),
      DHTRNG_KERNEL_CASE("sp800_22", "pattern_square_sum 16",
                         pattern_square_sum(b, 16)),
      DHTRNG_KERNEL_CASE("sp800_22", "pattern_square_sum 15",
                         pattern_square_sum(b, 15)),
      DHTRNG_KERNEL_CASE("sp800_22", "pattern_square_sum 14",
                         pattern_square_sum(b, 14)),
      DHTRNG_KERNEL_CASE("sp800_22", "pattern_entropy_sum 10",
                         pattern_entropy_sum(b, 10)),
      DHTRNG_KERNEL_CASE("sp800_22", "pattern_entropy_sum 11",
                         pattern_entropy_sum(b, 11)),
      DHTRNG_KERNEL_CASE("sp800_22", "walk_visits", walk_visits(b)),
      DHTRNG_KERNEL_CASE("sp800_22", "block_linear_complexities",
                         block_linear_complexities(b, 500)),
      DHTRNG_KERNEL_CASE("sp800_90b", "transition_counts",
                         transition_counts(b, 0, b.size() - 1)),
      DHTRNG_KERNEL_CASE("sp800_90b", "log2_distance_sums compression",
                         log2_distance_sums(b, 6, 1000, compression_k(b))),
      DHTRNG_KERNEL_CASE("sp800_90b", "multi_mcw_score", multi_mcw_score(b)),
      DHTRNG_KERNEL_CASE("sp800_90b", "lag_score", lag_score(b)),
      DHTRNG_KERNEL_CASE("sp800_90b", "t_tuple_p_hat", t_tuple_p_hat(b)),
      DHTRNG_KERNEL_CASE("sp800_90b", "lrs_p_hat", lrs_p_hat(b)),
      DHTRNG_KERNEL_CASE("sp800_90b", "tuple_stats 8", tuple_stats(b, 8)),
      DHTRNG_KERNEL_CASE("sp800_90b", "tuple_stats 24", tuple_stats(b, 24)),
      DHTRNG_KERNEL_CASE("ais31_fips140", "blocks_distinct 48",
                         blocks_distinct(b, b.size() / 48, 48)),
      DHTRNG_KERNEL_CASE("ais31_fips140", "blocks_distinct 16",
                         blocks_distinct(b, b.size() / 16, 16)),
      DHTRNG_KERNEL_CASE("ais31_fips140", "nibble_square_sum",
                         nibble_square_sum(b, b.size() / 4)),
      DHTRNG_KERNEL_CASE("ais31_fips140", "run_histogram",
                         run_histogram(b, b.size())),
      DHTRNG_KERNEL_CASE("ais31_fips140", "longest_run",
                         longest_run(b, b.size())),
      DHTRNG_KERNEL_CASE("ais31_fips140", "transition_counts 2nd half",
                         transition_counts(b, b.size() / 2,
                                           b.size() / 2 - 1)),
      DHTRNG_KERNEL_CASE("ais31_fips140", "coron_g_sum",
                         coron_g_sum(b, coron_q(b), coron_k(b), coron_g(b))),
  };
  return cases;
}

bool RepetitionCount::feed(bool bit) {
  if (alarmed_) return false;
  if (primed_ && bit == last_) {
    if (++run_ >= cutoff_) alarmed_ = true;
  } else {
    run_ = 1;
    last_ = bit;
    primed_ = true;
  }
  return !alarmed_;
}

bool AdaptiveProportion::feed(bool bit) {
  if (alarmed_) return false;
  if (index_ == 0) {
    // SP 800-90B 4.4.2 step 2: the counter starts at 1, counting the
    // window's reference sample itself — the cutoff is a bound on the total
    // occurrence count within the window, reference included.
    reference_ = bit;
    matches_ = 1;
    if (matches_ >= cutoff_) alarmed_ = true;  // degenerate W=1 windows
  } else if (bit == reference_) {
    if (++matches_ >= cutoff_) alarmed_ = true;
  }
  if (++index_ >= window_) index_ = 0;
  return !alarmed_;
}

}  // namespace dhtrng::stats::oracle
