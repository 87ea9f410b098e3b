// Internal state of DhTrngSoA's bitsliced fast engine + the per-tier step
// kernel entry points.  Not part of the public API — included only by
// dhtrng_soa.cpp (construction, dispatch) and the kernel translation units
// (dhtrng_soa_kernel*.cpp, which compile dhtrng_soa_engine.inc).
//
// Tier model: the step kernel is ONE source file compiled once at the
// baseline architecture (`scalar_k`) and, on x86-64, once more with
// -mavx2 -mfma (`avx2_k`).  Both TUs build with -ffp-contract=off, so the
// floating-point operation sequence per lane is identical and the tiers
// are bit-identical by construction (the same argument as the support
// SIMD kernels; on aarch64 the baseline TU already vectorizes with NEON).
// The AVX-512 tier runs the `avx2_k` step, whose noise-kernel calls then
// dispatch to the 8-wide support kernels; a 512-bit build of this source
// measured no end-to-end gain beyond run-to-run spread.
// Guarded intrinsic fast paths inside the kernel are restricted to *exact*
// operations — comparisons, sign-bit gathers, mask expansion — which
// cannot round differently.  Dispatch keys off support::simd::active_tier()
// so DHTRNG_FORCE_SCALAR and force_tier() cover the engine too.
#pragma once

#include <cstdint>

#include "support/simd_noise.h"

namespace dhtrng::core::soa {

inline constexpr int kLanes = 64;
inline constexpr int kRings = 12;    // 2 structures x {RO1a,RO2a,RO1b,RO2b,C1,C2}
inline constexpr int kUnits = 4;     // 2 structures x {unit a, unit b}
inline constexpr int kOctaves = 12;  // PhaseRo's flicker lattice depth

struct alignas(64) EngineState {
  // --- per-ring, per-lane constants (frozen structural mismatch) ----------
  double inv_period[kRings][kLanes];  ///< 1 / (base_period * scale.delay)
  double period[kRings][kLanes];      ///< base_period * scale.delay (ps)
  double duty[kRings][kLanes];
  double initial_phase[kRings][kLanes];

  // --- per-ring, per-lane evolving state -----------------------------------
  double phase[kRings][kLanes];
  double flick_row[kRings][kOctaves][kLanes];  ///< unit-normal octave rows
  double flick_sum[kRings][kLanes];            ///< sum of rows (unit scale)
  double last_flick[kRings][kLanes];           ///< last applied value (ps)

  // --- per-ring scalars ----------------------------------------------------
  double white_sigma[kRings];  ///< kappa*sqrt(dt)*white_scale[*chaos gain]
  double flick_gain[kRings];   ///< per-octave sigma * correlated_noise scale
  double shared_gain[kRings];  ///< supply coupling * correlated_noise scale
  double mod_gain[kRings];     ///< centrals: depth * dt * 0.5 (0 elsewhere)

  // --- hybrid-unit state (u = structure*2 + {a,b}) -------------------------
  std::uint64_t frozen[kUnits] = {};
  std::uint64_t frozen_meta[kUnits] = {};
  std::uint64_t frozen_level[kUnits] = {};
  double p_sub[kUnits][kLanes];   ///< hold-capture probability per lane
  double dt_osc[kUnits][kLanes];  ///< dt * (1 - duty of the unit's RO1)
  double w_osc[kUnits][kLanes];   ///< kappa2*sqrt(dt_osc)*white_scale
  double w_full[kUnits];          ///< kappa2*sqrt(dt)*white_scale
  double sigma_q1[kUnits];        ///< RO1 sampling aperture sigma (ps)
  double sigma_q2[kUnits];        ///< RO2 oscillating aperture sigma (ps)

  // --- chip-wide state -----------------------------------------------------
  double shared_value[kLanes] = {};  ///< per-lane supply AR(1) state
  double shared_rho = 0.995;
  double shared_inn_sigma = 0.0;
  double data_kick = 0.0;            ///< +/- displacement from the out reg
  double fb_inject[2][2][kLanes];    ///< [structure][central] phase jump
  std::uint64_t last_fb[2][2] = {};  ///< per-central feedback edge detector
  std::uint64_t out_reg = 0;
  bool coupling_enabled = true;
  bool feedback_enabled = true;
  double dt_ps = 0.0;

  std::uint64_t flick_counter = 0;
  std::uint64_t bits_emitted = 0;
  std::uint64_t metastable_bits = 0;

  support::simd::XoshiroSoA rng;

  // --- per-step scratch ----------------------------------------------------
  // Normals come straight from the fused XoshiroSoA::gaussian_fill (two
  // per raw word, never staged here); `raw` holds only the uniform words,
  // each sliced into two 32-bit coins: per-unit aperture words (high half
  // the Q1 coin, low half the Q2 coin — a lane consumes Q2's coin only
  // when oscillating) and per-unit sub-threshold words (high half the
  // hold-capture draw, bit 31 the metastable-latch fair coin — capture is
  // consumed on freeze transitions, the fair coin on held lanes, disjoint
  // within a step).
  static constexpr int kNormWhiteOff = 0;                 // 12*64 normals
  static constexpr int kNormSharedOff = kRings * kLanes;  // 64 normals
  static constexpr int kNormFlickOff = kNormSharedOff + kLanes;
  static constexpr int kNormMax = kNormFlickOff + kRings * kLanes;
  static constexpr int kRawUniform = 8 * kLanes;
  std::uint64_t raw[kRawUniform];
  double norm[kNormMax];
  double shared_eff[kLanes];
  double x[kLanes], pk[kLanes];
  double sin_a[kLanes], sin_b[kLanes], turns[kLanes];
  double rm[kLanes], om[kLanes], em[kLanes];
  std::uint64_t unit_q1[kUnits], unit_q2[kUnits];
};

// Step kernels, one per tier; identical outputs (see header comment).
namespace scalar_k {
std::uint64_t soa_step(EngineState& st);
}
#if defined(__x86_64__) || defined(_M_X64)
namespace avx2_k {
std::uint64_t soa_step(EngineState& st);
}
#endif

/// One step of all 64 lanes through the tier support::simd::active_tier()
/// selects: advances the 12 ring rows, resolves the hybrid units' sampling
/// and hold machines, the central chaotic rings, and returns the packed
/// output word (bit l = lane l's bit).
inline std::uint64_t step(EngineState& st) {
#if defined(__x86_64__) || defined(_M_X64)
  const support::simd::Tier tier = support::simd::active_tier();
  if (tier == support::simd::Tier::Avx2 ||
      tier == support::simd::Tier::Avx512) {
    return avx2_k::soa_step(st);
  }
#endif
  return scalar_k::soa_step(st);
}

}  // namespace dhtrng::core::soa
