#include "core/hybrid_unit.h"

#include <algorithm>

namespace dhtrng::core {

HybridUnitParams default_hybrid_params() {
  HybridUnitParams p;
  p.ro1.stages = 3;
  p.ro1.stage_delay_ps = 420.0;
  p.ro1.kappa_ps_per_sqrt_ps = 0.035;
  p.ro1.flicker_sigma_ps = 3.0;
  p.ro2.stages = 3;
  p.ro2.stage_delay_ps = 330.0;  // MUX path is faster than a full LUT stage
  p.ro2.kappa_ps_per_sqrt_ps = 0.035;
  p.ro2.flicker_sigma_ps = 3.0;
  p.ro2.edge_width_ps = 30.0;
  return p;
}

HybridUnit::HybridUnit(const HybridUnitParams& params, std::uint64_t seed)
    : params_(params),
      ro1_(params.ro1, seed),
      ro2_(params.ro2, seed ^ kRo2SeedMix),
      rng_(seed ^ 0x8f462907535ecb47ULL) {}

void HybridUnit::reset() {
  ro1_.reset();
  ro2_.reset();
  frozen_ = false;
  frozen_level_ = false;
  frozen_meta_ = false;
}

HybridSample HybridUnit::sample(double dt_ps, double shared_noise_ps,
                                const noise::PvtScaling& scale,
                                double aperture_sigma_ps) {
  HybridSample s;

  // --- RO1: plain jitter source -------------------------------------------
  ro1_.advance(dt_ps, shared_noise_ps, scale);
  s.r1 = ro1_.level();
  // The flip-flop samples R1; if the sampling edge lands within the
  // metastability aperture of a transition edge, Eq. 2 applies.
  s.q1 = aperture_sample(s.r1, ro1_.edge_distance_ps(scale),
                         std::max(aperture_sigma_ps, params_.ro1.edge_width_ps),
                         rng_);

  // --- RO2: dynamically switched hold / oscillate loop ---------------------
  // R1's level over the past interval decides RO2's mode.  We use the
  // sampled level: a fraction of the interval equal to RO1's duty was spent
  // holding; phase advances only during oscillation.
  const bool hold_now = s.r1;  // R1 = 1 -> holding region
  if (hold_now) {
    if (!frozen_) {
      // Freeze happens at R1's rising edge somewhere inside the interval.
      // Advance RO2 by the oscillating fraction first.
      const double osc_fraction = 1.0 - ro1_.duty();
      ro2_.advance(dt_ps * osc_fraction, shared_noise_ps, scale);
      frozen_ = true;
      // Did the freeze catch RO2 mid-transition?  The probability grows
      // with the (smoothed) edge width relative to the period.
      const double period = ro2_.period_ps(scale);
      const double edge_frac = params_.ro2.edge_width_ps *
                               params_.pulse_smoothing / period;
      const double p_subthreshold =
          std::min(params_.hold_capture_prob + 2.0 * edge_frac, 0.95);
      frozen_meta_ = rng_.bernoulli(p_subthreshold);
      frozen_level_ = ro2_.level();
    }
    if (frozen_meta_) {
      // Sub-threshold latch: delta = 0 in Eq. 2 -> near-fair coin.
      s.q2 = rng_.bernoulli(0.5);
      s.q2_metastable = true;
    } else {
      s.q2 = frozen_level_;
    }
  } else {
    if (frozen_) {
      frozen_ = false;
      // Release: resolve the held node and resume oscillation for the
      // oscillating remainder of the interval.
      const double osc_fraction = 1.0 - ro1_.duty();
      ro2_.advance(dt_ps * osc_fraction, shared_noise_ps, scale);
    } else {
      ro2_.advance(dt_ps, shared_noise_ps, scale);
    }
    // Oscillation region: pulse smoothing widens the transition edges, so
    // the sampler sees a metastable window more often (the 2*eps*f term of
    // Eq. 5).
    const double dist = ro2_.edge_distance_ps(scale);
    const double sigma = std::max(
        aperture_sigma_ps, params_.ro2.edge_width_ps * params_.pulse_smoothing);
    s.q2 = aperture_sample(ro2_.level(), dist, sigma, rng_);
    s.q2_metastable = dist < sigma;
  }

  s.out = s.q1 ^ s.q2;
  return s;
}

}  // namespace dhtrng::core
