// SP 800-22 sections 2.5 and 2.6: Binary Matrix Rank and Discrete Fourier
// Transform (spectral) tests.
//
// Rank fills each 32-bit matrix row with one chunk64 read and ranks the
// matrix word-parallel.  The DFT uses the cached-plan mixed-radix real FFT
// when the length supports it; because the decision statistic is the
// integer count of magnitudes below the threshold, it equals the exact
// (Bluestein) transform's count as long as no magnitude falls inside a
// guard band around the threshold — and when one does (or the length is
// unsupported), the count comes from the exact transform.
#include <algorithm>
#include <cmath>

#include "stats/kernels.h"
#include "stats/sp800_22.h"
#include "support/fft.h"
#include "support/gf2.h"
#include "support/special_functions.h"

namespace dhtrng::stats::kernels {

namespace {

// Measured |fast - exact| magnitude error: ~1.5e-8 at n = 2*10^5 and
// ~1.1e-7 at n = 10^6, growing roughly linearly with n.  The guard keeps
// a ~100x margin over that at every size; any wider and a noticeable
// fraction of random streams lands inside the band (the Rayleigh density
// near the threshold is ~1e-4 per unit at n = 10^6), paying for both
// transforms for no exactness benefit.
double dft_guard(std::size_t n) {
  return std::max(1e-6, 1e-11 * static_cast<double>(n));
}

std::size_t dft_below_threshold_scalar(const std::vector<double>& x,
                                       double threshold) {
  const std::vector<double> mags = support::real_dft_magnitudes(x);
  std::size_t n1 = 0;
  for (double m : mags) {
    if (m < threshold) ++n1;
  }
  return n1;
}

}  // namespace

std::size_t dft_below_threshold(const std::vector<double>& x,
                                double threshold) {
  if (!support::fast_real_dft_available(x.size())) {
    return dft_below_threshold_scalar(x, threshold);
  }
  const std::vector<double> mags = support::real_dft_magnitudes_fast(x);
  const double guard = dft_guard(x.size());
  std::size_t n1 = 0;
  for (double m : mags) {
    if (std::abs(m - threshold) < guard) {
      // A magnitude this close to the threshold could classify differently
      // under exact arithmetic: defer to the exact transform.
      return dft_below_threshold_scalar(x, threshold);
    }
    if (m < threshold) ++n1;
  }
  return n1;
}

RankCounts rank_counts(const BitStream& bits) {
  constexpr std::size_t kM = 32;
  RankCounts counts;
  counts.matrices = bits.size() / (kM * kM);
  for (std::size_t m = 0; m < counts.matrices; ++m) {
    support::Gf2Matrix mat(kM, kM);
    const std::size_t base = m * kM * kM;
    // Row r is 32 consecutive stream bits; chunk64 is LSB-first, matching
    // the column-c-is-bit-c row layout of Gf2Matrix.
    for (std::size_t r = 0; r < kM; ++r) {
      mat.set_row_bits(r, bits.chunk64(base + r * kM) & 0xFFFFFFFFULL);
    }
    const std::size_t rk = mat.rank();
    if (rk == kM) ++counts.full;
    else if (rk == kM - 1) ++counts.minus1;
  }
  return counts;
}

}  // namespace dhtrng::stats::kernels

namespace dhtrng::stats::sp800_22 {

using support::erfc;

TestResult rank(const BitStream& bits) {
  constexpr std::size_t kM = 32;
  const auto [matrices, full, minus1] = kernels::rank_counts(bits);
  if (matrices == 0) return {"Rank", {0.0}, false};
  const std::size_t rest = matrices - full - minus1;
  const double p_full = support::gf2_full_rank_deficit_probability(kM, 0);
  const double p_m1 = support::gf2_full_rank_deficit_probability(kM, 1);
  const double p_rest = 1.0 - p_full - p_m1;
  const double nd = static_cast<double>(matrices);
  double chi2 = 0.0;
  chi2 += (static_cast<double>(full) - p_full * nd) *
          (static_cast<double>(full) - p_full * nd) / (p_full * nd);
  chi2 += (static_cast<double>(minus1) - p_m1 * nd) *
          (static_cast<double>(minus1) - p_m1 * nd) / (p_m1 * nd);
  chi2 += (static_cast<double>(rest) - p_rest * nd) *
          (static_cast<double>(rest) - p_rest * nd) / (p_rest * nd);
  return {"Rank", {std::exp(-chi2 / 2.0)}};
}

TestResult dft(const BitStream& bits) {
  const std::size_t n = bits.size();
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = bits[i] ? 1.0 : -1.0;
  const double nd = static_cast<double>(n);
  const double threshold = std::sqrt(std::log(1.0 / 0.05) * nd);
  const std::size_t below = kernels::dft_below_threshold(x, threshold);
  const double n0 = 0.95 * nd / 2.0;
  const double n1 = static_cast<double>(below);
  const double d = (n1 - n0) / std::sqrt(nd * 0.95 * 0.05 / 4.0);
  return {"FFT", {erfc(std::abs(d) / std::sqrt(2.0))}};
}

}  // namespace dhtrng::stats::sp800_22
