// Runtime-dispatched SIMD noise kernels — the fast-noise mode's math core.
//
// The exact-doubles noise pipeline (Xoshiro256::gaussian_fill,
// FlickerNoise::fill, SharedSupplyNoise) draws one double at a time through
// the Marsaglia polar method; its value stream is pinned by the golden
// waveform digests and cannot be reordered.  The kernels here implement the
// documented `fast-noise` relaxation: batched Box-Muller and polynomial
// special functions over whole blocks, laid out so the compiler vectorizes
// them (AVX2 or AVX-512 on x86-64, NEON on aarch64, plain scalar
// elsewhere).
//
// Dispatch contract: every tier produces *bit-identical* doubles.  The
// scalar and NEON tiers compile the same kernel source
// (simd_noise_kernels.inc) with contraction disabled and explicit std::fma;
// the AVX2 and AVX-512 tiers repeat that operation sequence in intrinsics,
// 4 and 8 doubles wide.  IEEE-754 makes +, -, *, /, sqrt and fma
// deterministic per lane — so vector width never changes a result, only
// wall-clock.  tests/noise/test_simd_dispatch.cpp asserts exact equality
// between every tier the CPU supports and the forced-scalar path; the
// documented compatibility bound for future platforms is <= 2 ulp.
//
// The AVX-512 tier (avx512f + avx512dq + avx512vl on top of AVX2/FMA)
// covers every kernel: the SoA engine's step kernels and the simulator's
// noise-block refill (boxmuller_fill, fma_delay_block).
//
// Kernels:
//  - boxmuller_fill: fused serial xoshiro + Box-Muller normals (the
//    simulator's Fast-mode gaussians, Xoshiro256::gaussian_fill_fast);
//  - fma_delay_block: the gate-level Fast-mode delay block;
//  - sin2pi_batch_trimmed, normal_cdf_batch_trimmed_gated,
//    uniform_lt_mask64_hi/_lo and the XoshiroSoA fills: the SoA engine's
//    step.
//
// Tier selection: the best tier the CPU supports, clamped to Scalar when
// the environment variable DHTRNG_FORCE_SCALAR=1 is set (the CI parity
// lane), or overridden programmatically with force_tier() (tests).
#pragma once

#include <cstddef>
#include <cstdint>

namespace dhtrng::support {
class Xoshiro256;
}

namespace dhtrng::support::simd {

enum class Tier { Scalar, Avx2, Avx512, Neon };

const char* tier_name(Tier t);

/// Best tier this CPU supports, after the DHTRNG_FORCE_SCALAR clamp.
/// Evaluated once per process.
Tier detected_tier();

/// Tier the kernels currently dispatch to (detected_tier() unless
/// force_tier() changed it).
Tier active_tier();

/// Test hook: force dispatch to `t` if the CPU supports it, else to
/// Scalar.  Returns the previously active tier.
Tier force_tier(Tier t);

/// Fused fill: advances the xoshiro256** state `s` inline and writes `n`
/// standard normals (`n` must be even), two per raw word — the high 32
/// bits feed the Box-Muller radius (trimmed log, tail clipped at ~6.66
/// sigma), the low 32 bits the angle (trimmed sincos).  Per-sample
/// absolute error vs an exact Box-Muller of the same uniforms < 1e-6.
/// Position-fixed: normals 2j, 2j+1 depend only on the j-th word after
/// the incoming state, so chunked fills concatenate exactly.
void boxmuller_fill(std::uint64_t s[4], double* out, std::size_t n);

/// out[i] = fma(white_gain, white[i], fma(flicker_gain, flicker[i], base))
/// for i < n: one block of complete gate delays in fast-noise mode
/// (noise::EdgeJitterSource).  Every tier rounds each fma once, so the
/// block is bit-identical across tiers; the vector tiers use the FMA
/// instruction instead of a libm call.
void fma_delay_block(const double* white, const double* flicker,
                     double white_gain, double flicker_gain, double base,
                     double* out, std::size_t n);

/// out[i] = sin(2*pi*turns[i]) for turns in [0, 2); absolute error < 1e-6
/// (measured ~3.1e-7).
void sin2pi_batch_trimmed(const double* turns, double* out, std::size_t n);

/// Group-gated Phi(x), the standard normal CDF: the Abramowitz-Stegun
/// 7.1.26 rational term (absolute error 1.5e-7 dominates) over the trimmed
/// exponential, total absolute error < 1e-6 (exact mode keeps
/// support::normal_cdf).  Any 4-lane group whose inputs all sit at or
/// above `cutoff` skips the evaluation and stores 1.0; a group with at
/// least one lane below the cutoff, and any tail lanes past the last full
/// group, evaluates every lane, so cutoff HUGE_VAL evaluates everything.
/// The gate is per-4-group in every tier, so tiers stay bit-identical.
/// Meant for consumers that mask out far lanes anyway (the SoA engine's
/// aperture keep test): their downstream results are bit-identical at a
/// fraction of the CDF work when most lanes are far from an edge.
void normal_cdf_batch_trimmed_gated(const double* x, double* out,
                                    std::size_t n, double cutoff);

/// Sliced Bernoulli draws: the comparison consumes nowhere near 64 bits of
/// entropy, so each word is split into two independent 32-bit uniforms —
/// _hi compares the high half, _lo the low half (each in [0,1) at 2^-32
/// granularity; coin bias <= 2^-32, far below the model's probabilities).
/// Two coins per word halves the SoA engine's uniform word budget.
std::uint64_t uniform_lt_mask64_hi(const std::uint64_t* raw, const double* p);
std::uint64_t uniform_lt_mask64_lo(const std::uint64_t* raw, const double* p);

/// 64 parallel xoshiro256** streams in structure-of-arrays layout: state
/// word j of lane l is s[j][l].  One advance() yields 64 independent
/// uint64s (one per lane).  Seeded per lane via SplitMix64 like the scalar
/// Xoshiro256, so lanes are as independent as 64 separately-seeded scalar
/// generators.
struct XoshiroSoA {
  std::uint64_t s[4][64];

  void seed_lane(std::size_t lane, std::uint64_t seed);

  /// out[l] = next value of lane l's stream, for all 64 lanes.
  void advance(std::uint64_t* out);

  /// Fill `n` words (n a multiple of 64) lane-major: out[k*64 + l] is the
  /// k-th draw of lane l.
  void fill(std::uint64_t* out, std::size_t n);

  /// Fused fill of `n` standard normals (`n` even): each 64-lane advance
  /// yields 128 normals via the fused Box-Muller (two per word, see
  /// boxmuller_fill).  A partial final advance consumes its first
  /// ceil(rem/2) words and deterministically discards the rest.
  void gaussian_fill(double* out, std::size_t n);
};

}  // namespace dhtrng::support::simd
