// 1/f (flicker) noise process.
//
// Ring-oscillator jitter has two components: white (thermal / shot) noise,
// whose phase contribution accumulates as sqrt(time), and flicker noise,
// which is strongly correlated across edges and accumulates faster.  The
// flicker component matters for the reproduction because its correlation
// makes it *non-entropic* over short horizons — attackers can track it — so
// the entropy model must separate it from the white component.
//
// Implemented as the Voss–McCartney algorithm: the sum of `octaves`
// independent white sources, source k being resampled every 2^k steps.
// The spectrum approximates 1/f over ~`octaves` decades of frequency.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "support/rng.h"

namespace dhtrng::noise {

class FlickerNoise {
 public:
  /// `amplitude` is the standard deviation of each octave source; the total
  /// sample std-dev is amplitude * sqrt(octaves).
  FlickerNoise(double amplitude, int octaves, std::uint64_t seed);

  /// Next correlated sample.
  double next();

  /// Fill `out[0..n)` with the next `n` samples — bit-identical to n
  /// successive next() calls, but the row-update gaussians are drawn in
  /// blocks so the batched noise path pays one call per block instead of
  /// one per sample.
  void fill(double* out, std::size_t n);

  /// Fast-noise variant: same lattice, but one gaussian per sample drawn
  /// from gaussian_fill_fast in one call per 256 samples (the fused stream
  /// is position-fixed, so the draw size never changes a value), and the
  /// octave sum kept as a running total (re-summed once per 64-sample
  /// chunk to bound FP drift) instead of re-added per sample.  NOT
  /// bit-compatible with next()/fill(); statistically identical.
  void fill_fast(double* out, std::size_t n);

  int octaves() const { return static_cast<int>(rows_.size()); }

 private:
  double amplitude_;
  std::vector<double> rows_;
  std::uint64_t counter_ = 0;
  support::Xoshiro256 rng_;
};

}  // namespace dhtrng::noise
