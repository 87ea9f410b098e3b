#include "noise/flicker.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace dhtrng::noise {

FlickerNoise::FlickerNoise(double amplitude, int octaves, std::uint64_t seed)
    : amplitude_(amplitude), rng_(seed) {
  if (octaves < 1 || octaves > 62) {
    throw std::invalid_argument("FlickerNoise: octaves out of range");
  }
  rows_.resize(static_cast<std::size_t>(octaves));
  for (auto& r : rows_) r = rng_.gaussian(0.0, amplitude_);
}

double FlickerNoise::next() {
  // Row k is refreshed when bit k is the lowest set bit of the counter, so
  // row k changes once every 2^(k+1) samples: the classic pink-noise lattice.
  // The left-to-right summation order is part of the determinism contract
  // (golden bitstreams pin the exact doubles).
  ++counter_;
  const int row = std::countr_zero(counter_);
  if (row < static_cast<int>(rows_.size())) {
    rows_[static_cast<std::size_t>(row)] = rng_.gaussian(0.0, amplitude_);
  }
  double sum = 0.0;
  for (double r : rows_) sum += r;
  return sum;
}

void FlickerNoise::fill(double* out, std::size_t n) {
  const int octaves = static_cast<int>(rows_.size());
  std::size_t done = 0;
  double draws[64];
  while (done < n) {
    const std::size_t chunk = std::min<std::size_t>(64, n - done);
    // Row k is refreshed when countr_zero(counter) == k < octaves; count
    // the refreshes in this chunk, pre-draw exactly that many gaussians
    // (same stream, same order as per-call next()), then replay the
    // lattice consuming them.
    std::size_t need = 0;
    for (std::size_t i = 0; i < chunk; ++i) {
      if (std::countr_zero(counter_ + 1 + i) < octaves) ++need;
    }
    rng_.gaussian_fill(draws, need);
    std::size_t used = 0;
    for (std::size_t i = 0; i < chunk; ++i) {
      ++counter_;
      const int row = std::countr_zero(counter_);
      if (row < octaves) {
        // Identical arithmetic to rng_.gaussian(0.0, amplitude_).
        rows_[static_cast<std::size_t>(row)] = 0.0 + amplitude_ * draws[used++];
      }
      double sum = 0.0;
      for (double r : rows_) sum += r;
      out[done + i] = sum;
    }
    done += chunk;
  }
}

void FlickerNoise::fill_fast(double* out, std::size_t n) {
  const int octaves = static_cast<int>(rows_.size());
  // One gaussian per sample, consumed only when the sample refreshes a row
  // (countr_zero < octaves; with the default 12 octaves ~1.6% of draws go
  // unused).  Trading those draws for a pre-count pass is a net win, and
  // the fused stream is position-fixed, so one draw per kDrawBlock samples
  // gives the same values as one per 64-sample chunk: filling 128 samples
  // in one call or two draws the same sequence.
  constexpr std::size_t kDrawBlock = 256;
  double draws[kDrawBlock];
  for (std::size_t block = 0; block < n; block += kDrawBlock) {
    const std::size_t len = std::min(kDrawBlock, n - block);
    rng_.gaussian_fill_fast(draws, len);
    for (std::size_t done = 0; done < len; done += 64) {
      const std::size_t chunk = std::min<std::size_t>(64, len - done);
      // Fresh sum per chunk bounds running-sum drift to ~64 updates.
      double sum = 0.0;
      for (double r : rows_) sum += r;
      for (std::size_t i = done; i < done + chunk; ++i) {
        ++counter_;
        const int row = std::countr_zero(counter_);
        if (row < octaves) {
          const double nv = amplitude_ * draws[i];
          sum += nv - rows_[static_cast<std::size_t>(row)];
          rows_[static_cast<std::size_t>(row)] = nv;
        }
        out[block + i] = sum;
      }
    }
  }
}

}  // namespace dhtrng::noise
