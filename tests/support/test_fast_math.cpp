// Accuracy bounds for the polynomial special functions behind the
// fast-noise kernels (support/simd_noise.h): dense sweeps against libm,
// pinning the documented error budgets so a future "optimization" cannot
// silently trade accuracy the docs promise.
//
// Budgets under test (docs/architecture.md, simd_noise.h):
//   * fast_log_t / fast_exp_t   rel err <= 1e-6
//   * sin2pi                    abs err <= 1e-6
//   * normal_cdf (A&S 7.1.26)   abs err <= 1e-6
//
// fast_log_t / fast_exp_t have no exported batch entry point, so the
// kernel source is included here under its own namespace as the scalar
// oracle; cross-tier parity of the same helpers is covered through the
// BoxmullerFill*, XoshiroSoAGaussianFill* and GatedTrimmedCdf* suites.
// sin2pi and the CDF are swept through their dispatched kernels (the CDF
// with cutoff HUGE_VAL, which gates nothing).
//
// The sweeps are deterministic grids (plus the domain endpoints and the
// Box-Muller-relevant extremes), not random samples, so a failure is
// reproducible by construction.
#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "support/simd_noise.h"

#define DHTRNG_KERNEL_NS fast_math_oracle
#include "support/simd_noise_kernels.inc"
#undef DHTRNG_KERNEL_NS

namespace simd = dhtrng::support::simd;
namespace oracle = dhtrng::support::simd::fast_math_oracle;

namespace {

/// Max |approx - exact| / max(|exact|, floor) over the batch.
double max_rel_err(const std::vector<double>& approx,
                   const std::vector<double>& exact, double floor) {
  double worst = 0.0;
  for (std::size_t i = 0; i < approx.size(); ++i) {
    const double denom = std::max(std::fabs(exact[i]), floor);
    worst = std::max(worst, std::fabs(approx[i] - exact[i]) / denom);
  }
  return worst;
}

double max_abs_err(const std::vector<double>& approx,
                   const std::vector<double>& exact) {
  double worst = 0.0;
  for (std::size_t i = 0; i < approx.size(); ++i) {
    worst = std::max(worst, std::fabs(approx[i] - exact[i]));
  }
  return worst;
}

/// Dense grid over [lo, hi] (inclusive of both endpoints).
std::vector<double> grid(double lo, double hi, std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = lo + (hi - lo) * static_cast<double>(i) /
                    static_cast<double>(n - 1);
  }
  return x;
}

constexpr std::size_t kSweep = 200001;

}  // namespace

// ---------------------------------------------------------------------------
// fast_log: domain (0, 1] — the Box-Muller radius input.  The sweep covers
// the bulk of the domain uniformly plus a geometric sweep into the deep
// tail (u down to 2^-32, the smallest uniform the fused kernel can form).
// ---------------------------------------------------------------------------

namespace {

std::vector<double> log_domain() {
  std::vector<double> x = grid(1.0 / 4294967296.0, 1.0, kSweep);
  for (double u = 1.0; u >= 0x1p-32; u *= 0.5) {
    x.push_back(u);         // powers of two: exact reduction boundaries
    x.push_back(u * 0.75);  // mid-octave
  }
  return x;
}

}  // namespace

TEST(FastMath, LogTrimmedGradeRelErrWithin1e6) {
  const std::vector<double> x = log_domain();
  std::vector<double> got(x.size()), want(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    got[i] = oracle::fast_log_t(x[i]);
    want[i] = std::log(x[i]);
  }
  const double err = max_rel_err(got, want, 1e-6);
  EXPECT_LE(err, 1e-6) << "trimmed fast_log exceeded the fast-mode budget";
}

// ---------------------------------------------------------------------------
// fast_exp: domain y <= 0 — the CDF kernels evaluate exp of a negative
// quadratic.  Sweep [-40, 0]; below ~-745 everything underflows to 0
// identically so the interesting range is the normal-CDF working range.
// ---------------------------------------------------------------------------

TEST(FastMath, ExpTrimmedGradeRelErrWithin1e6) {
  const std::vector<double> y = grid(-40.0, 0.0, kSweep);
  std::vector<double> got(y.size()), want(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    got[i] = oracle::fast_exp_t(y[i]);
    want[i] = std::exp(y[i]);
  }
  const double err = max_rel_err(got, want, 1e-300);
  EXPECT_LE(err, 1e-6) << "trimmed fast_exp exceeded the fast-mode budget";
}

// ---------------------------------------------------------------------------
// sin2pi: domain turns in [0, 2) — Box-Muller angles (one turn) and the
// engine's accumulated-phase rows (up to two turns before re-wrapping).
// ---------------------------------------------------------------------------

TEST(FastMath, Sin2PiTrimmedGradeAbsErrWithin1e6) {
  const std::vector<double> t = grid(0.0, 2.0 - 1e-9, kSweep);
  std::vector<double> got(t.size()), want(t.size());
  simd::sin2pi_batch_trimmed(t.data(), got.data(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    want[i] = std::sin(2.0 * M_PI * t[i]);
  }
  EXPECT_LE(max_abs_err(got, want), 1e-6)
      << "trimmed sin2pi exceeded the fast-mode budget";
}

// ---------------------------------------------------------------------------
// normal_cdf: the A&S 7.1.26 rational term, whose 7.5e-8 intrinsic error
// dominates, over fast_exp_t.  Sweep the full working range including the
// symmetry seam at x = 0 and the saturated tails.
// ---------------------------------------------------------------------------

TEST(FastMath, NormalCdfTrimmedGradeAbsErrWithin1e6) {
  const std::vector<double> x = grid(-8.0, 8.0, kSweep);
  std::vector<double> got(x.size()), want(x.size());
  simd::normal_cdf_batch_trimmed_gated(x.data(), got.data(), x.size(),
                                       HUGE_VAL);
  for (std::size_t i = 0; i < x.size(); ++i) {
    want[i] = 0.5 * std::erfc(-x[i] / std::sqrt(2.0));
  }
  EXPECT_LE(max_abs_err(got, want), 1e-6)
      << "trimmed normal_cdf exceeded the fast-mode budget";
}
