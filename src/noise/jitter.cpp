#include "noise/jitter.h"

#include <cmath>

#include "support/simd_noise.h"

namespace dhtrng::noise {

SharedSupplyNoise::SharedSupplyNoise(double sigma_ps, std::uint64_t seed,
                                     double correlation)
    : rho_(correlation),
      innovation_sigma_(std::sqrt(1.0 - correlation * correlation) * sigma_ps),
      rng_(seed) {}

void SharedSupplyNoise::refill() {
  constexpr std::size_t n = kNoiseBlock;
  block_.resize(n);
  if (mode_ == NoiseMode::Fast) {
    rng_.gaussian_fill_fast(block_.data(), n);
  } else {
    rng_.gaussian_fill(block_.data(), n);
  }
  // x' = rho x + sqrt(1-rho^2) sigma w; the innovation keeps the
  // arithmetic of a per-call rng_.gaussian(0.0, s), i.e. 0.0 + s * w.
  double v = value_;
  for (std::size_t i = 0; i < n; ++i) {
    v = rho_ * v + (0.0 + innovation_sigma_ * block_[i]);
    block_[i] = v;
  }
  block_pos_ = 0;
}

EdgeJitterSource::EdgeJitterSource(const JitterParams& params,
                                   std::uint64_t seed,
                                   SharedSupplyNoise* shared)
    : params_(params),
      rng_(seed),
      // 12 octaves spans ~4 decades of 1/f; amplitude chosen so the marginal
      // sigma equals flicker_sigma_ps.
      flicker_(params.flicker_sigma_ps / std::sqrt(12.0), 12, seed ^ 0x9e3779b97f4a7c15ULL),
      shared_(shared) {}

void EdgeJitterSource::refill() {
  constexpr std::size_t n = kNoiseBlock;
  white_block_.resize(n);
  flicker_block_.resize(n);
  // The white and flicker components come from independent streams, so
  // filling one whole block and then the other consumes each stream in
  // exactly the per-call order.
  rng_.gaussian_fill(white_block_.data(), n);
  flicker_.fill(flicker_block_.data(), n);
  block_pos_ = 0;
}

void EdgeJitterSource::enable_fast_delay(double base_delay_ps, double floor_ps,
                                         const PvtScaling& scale) {
  fast_base_ = base_delay_ps;
  fast_floor_ = floor_ps;
  fast_white_gain_ = params_.white_sigma_ps * scale.white_jitter;
  fast_flicker_gain_ = scale.correlated_noise;
  // Mirrors combine(): the shared term is gated on correlated_sigma_ps but
  // shared_->step() is still consumed whenever a supply is attached, so
  // the global AR(1) consumption order matches the structure of the exact
  // path.
  fast_shared_gain_ =
      params_.correlated_sigma_ps > 0.0 ? scale.correlated_noise : 0.0;
  delay_block_.clear();
  delay_pos_ = 0;
}

void EdgeJitterSource::refill_fast() {
  constexpr std::size_t n = kNoiseBlock;
  double white[n];
  double flicker[n];
  delay_block_.resize(n);
  rng_.gaussian_fill_fast(white, n);
  flicker_.fill_fast(flicker, n);
  support::simd::fma_delay_block(white, flicker, fast_white_gain_,
                                 fast_flicker_gain_, fast_base_,
                                 delay_block_.data(), n);
  delay_pos_ = 0;
}

}  // namespace dhtrng::noise
