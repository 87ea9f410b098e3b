// Per-edge jitter model for gates and ring oscillators.
//
// Each logic transition in the event-driven simulator (and each accumulated
// sampling interval in the fast phase-domain models) receives a delay
// perturbation with three components:
//
//   * white:      independent Gaussian per edge — the entropy-bearing part;
//   * flicker:    1/f-correlated across edges — slow wander, low entropy;
//   * correlated: shared across *all* sources of a device (supply ripple,
//                 substrate coupling) — adversarially observable, zero
//                 entropy, and the main randomness spoiler at PVT corners.
//
// Sigmas are in picoseconds at the nominal corner; a PvtScaling rescales
// them per experiment.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "noise/flicker.h"
#include "noise/pvt.h"
#include "support/rng.h"

namespace dhtrng::noise {

/// Noise fidelity mode.
///
///  * Exact — the historical draw-for-draw arithmetic (polar-method
///    gaussians, per-sample flicker summation).  Golden-waveform digests
///    pin this stream; it is the default everywhere.
///  * Fast — fused xoshiro + Box-Muller through the dispatched SIMD
///    kernels (support/simd_noise.h; two trimmed-grade normals per raw
///    word) plus pre-combined delay blocks.  The streams are
///    statistically equivalent but NOT bit-compatible with Exact, so
///    golden digests do not apply; waveforms are still deterministic per
///    (seed, mode) and identical across dispatch tiers.
enum class NoiseMode { Exact, Fast };

/// Every noise component (white, flicker, shared supply) is drawn in
/// fixed blocks of this many samples, in both noise modes.  The block size
/// never changes a value: Exact-mode gaussian_fill and FlickerNoise::fill
/// are bit-identical to the per-call gaussian()/next() streams for any
/// chunking, and the fused Fast-mode gaussian_fill_fast stream is
/// position-fixed (normals 2j, 2j+1 come from the j-th raw word), so any
/// even block size draws the same values.  It only amortizes refills.
inline constexpr std::size_t kNoiseBlock = 256;

struct JitterParams {
  double white_sigma_ps = 1.0;      ///< per-edge white jitter sigma
  double flicker_sigma_ps = 0.5;    ///< marginal sigma of the flicker process
  double correlated_sigma_ps = 0.3; ///< sigma of the shared supply component
};

/// The device-wide shared noise source (one per simulated "chip").
/// Sources sample it once per edge; it evolves as a slow AR(1) process.
///
/// The AR(1) trajectory depends only on this object's private RNG stream,
/// not on which source calls step() — the global cross-source call order
/// decides who *receives* the k-th value, and consumption order equals
/// call order either way.  So the trajectory is precomputed in blocks of
/// kNoiseBlock steps: the value stream is the per-call AR(1) recurrence
/// x' = rho x + sqrt(1 - rho^2) sigma w, bit for bit.
class SharedSupplyNoise {
 public:
  SharedSupplyNoise(double sigma_ps, std::uint64_t seed,
                    double correlation = 0.995);

  /// Advance one step and return the current value (ps).
  double step() {
    if (block_pos_ >= block_.size()) refill();
    value_ = block_[block_pos_++];
    return value_;
  }
  double current() const { return value_; }

  /// Fast mode draws the AR(1) innovations via gaussian_fill_fast (the
  /// recurrence itself is unchanged).  Takes effect at the next refill.
  void set_mode(NoiseMode m) { mode_ = m; }

 private:
  void refill();

  double rho_;
  double innovation_sigma_;  ///< sqrt(1 - rho^2) * sigma, loop-invariant
  double value_ = 0.0;
  support::Xoshiro256 rng_;
  std::vector<double> block_;
  std::size_t block_pos_ = 0;
  NoiseMode mode_ = NoiseMode::Exact;
};

/// Per-source edge jitter generator.
class EdgeJitterSource {
 public:
  EdgeJitterSource(const JitterParams& params, std::uint64_t seed,
                   SharedSupplyNoise* shared = nullptr);

  /// Delay perturbation (ps) for the next transition, with PVT scaling
  /// applied to the component sigmas.  The white and flicker components
  /// are drawn kNoiseBlock at a time; each comes from its own RNG stream,
  /// so the value stream is bit-identical to one gaussian()/next() pair
  /// per call.  Only the shared supply component, whose AR(1) state is
  /// stepped in global cross-source order, is consumed per call.
  double next_edge_jitter(const PvtScaling& scale) {
    if (block_pos_ >= white_block_.size()) refill();
    const double white = white_block_[block_pos_];
    const double flicker = flicker_block_[block_pos_];
    ++block_pos_;
    return combine(white, flicker, scale);
  }

  /// Same at the nominal corner.
  double next_edge_jitter() { return next_edge_jitter({1.0, 1.0, 1.0}); }

  /// Fast-noise mode: precompute *complete* per-edge delays instead of
  /// raw components.  Each block entry is
  ///     fma(white_gain, w[i], fma(flicker_gain, f[i], base_delay_ps))
  /// with the gains folded in at refill time (the PvtScaling is
  /// snapshotted here — the simulator's scaling is per-run constant), the
  /// gaussians drawn via gaussian_fill_fast, the flicker lattice via
  /// FlickerNoise::fill_fast and the block combined by the dispatched
  /// support::simd::fma_delay_block (the FMA instruction on the vector
  /// tiers, no libm call).  Only the shared-supply term stays per-call
  /// so cross-gate supply correlation keeps its global consumption order;
  /// its one std::fma per edge in next_delay_fast is the only libm fma left
  /// on a baseline x86-64 build.
  /// NOT bit-compatible with next_edge_jitter (see NoiseMode).
  void enable_fast_delay(double base_delay_ps, double floor_ps,
                         const PvtScaling& scale);

  /// Next complete gate delay (ps), clamped to the floor passed to
  /// enable_fast_delay.  Call only after enable_fast_delay.
  double next_delay_fast() {
    if (delay_pos_ >= delay_block_.size()) refill_fast();
    double d = delay_block_[delay_pos_++];
    if (shared_ != nullptr) {
      d = std::fma(shared_->step(), fast_shared_gain_, d);
    }
    return d < fast_floor_ ? fast_floor_ : d;
  }

  const JitterParams& params() const { return params_; }

 private:
  void refill();
  void refill_fast();

  /// Same arithmetic as a per-call gaussian(0, sigma) draw, which is
  /// 0.0 + sigma * gaussian().
  double combine(double white, double flicker, const PvtScaling& scale) {
    double jitter = 0.0 + params_.white_sigma_ps * scale.white_jitter * white;
    jitter += flicker * scale.correlated_noise;
    if (shared_ != nullptr) {
      jitter += shared_->step() * scale.correlated_noise *
                (params_.correlated_sigma_ps > 0.0 ? 1.0 : 0.0);
    }
    return jitter;
  }

  JitterParams params_;
  support::Xoshiro256 rng_;
  FlickerNoise flicker_;
  SharedSupplyNoise* shared_;
  // Raw (unscaled) block buffers: white is a standard normal, flicker the
  // raw process sample; PVT scaling is applied at consumption time so a
  // scale change mid-block stays correct.
  std::vector<double> white_block_;
  std::vector<double> flicker_block_;
  std::size_t block_pos_ = 0;
  // Fast-delay mode (enable_fast_delay): pre-combined delay blocks and the
  // gains/constants folded into them.
  std::vector<double> delay_block_;
  std::size_t delay_pos_ = 0;
  double fast_base_ = 0.0;
  double fast_floor_ = 0.0;
  double fast_white_gain_ = 0.0;
  double fast_flicker_gain_ = 0.0;
  double fast_shared_gain_ = 0.0;
};

}  // namespace dhtrng::noise
