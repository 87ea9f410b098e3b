// AVX-512 tier of the fast-noise kernels, 8 doubles wide: the SoA engine's
// step (the raw and fused-normal XoshiroSoA fills, the gated trimmed CDF,
// sin2pi and the sliced Bernoulli masks) and the simulator's noise-block
// refill (boxmuller_fill, fma_delay_block).  Every kernel repeats the
// AVX2 tier's operation sequence (simd_noise_avx2.cpp) lane for lane: the
// same IEEE-754 basic operations, the same explicit FMAs in the same
// places, floor as roundscale toward -inf, and compare masks in place of
// blend vectors — all exact or correctly rounded per lane, so this tier is
// bit-identical to the AVX2 and scalar tiers.  The CDF keeps the per-4-lane
// gate of the other tiers, so pk is identical too.  boxmuller_fill
// advances its xoshiro state serially (the recurrence is loop-carried) and
// runs only the Box-Muller math 8 wide.  Only reached after the runtime
// avx512f/dq/vl check in simd_noise.cpp.
#if defined(__x86_64__) || defined(_M_X64)

// GCC 12 reports the `__Y = __Y` idiom inside its own AVX-512 intrinsics
// as uninitialized once they are inlined at -O3 (GCC bug 105593, fixed in
// GCC 13); the suppression covers the header's lines only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#include <cstddef>
#include <cstdint>
#include <initializer_list>

namespace dhtrng::support::simd {

namespace avx512_k {

namespace {

// Vector constants are built where they are used (each folds to a
// constant-pool load).  A namespace-scope __m512d would be initialized by
// a static constructor that runs AVX-512 stores before main, and so before
// the CPU check, on every host that links this library.
inline __m512d magic() {  // 2^52 with OR-able mantissa
  return _mm512_castsi512_pd(_mm512_set1_epi64(0x4330000000000000LL));
}
inline __m512d two52() { return _mm512_set1_pd(0x1p52); }
inline __m512d inv_two32() { return _mm512_set1_pd(0x1p-32); }
inline __m512d sign_bit() { return _mm512_set1_pd(-0.0); }
inline __m512d one() { return _mm512_set1_pd(1.0); }

constexpr int kFloor = _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC;

// double(x) for x < 2^52 — mirrors small_u64_to_double.
inline __m512d small_u64_to_double(__m512i x) {
  return _mm512_sub_pd(
      _mm512_castsi512_pd(_mm512_or_si512(x, _mm512_castpd_si512(magic()))),
      two52());
}

// log(x) for x in (0, 1] — mirrors fast_log_t.  The fold adds m (or 1)
// only on folded lanes; the AVX2 tier adds 0.0 on the others, which
// leaves the positive m and e unchanged, so the results match.
inline __m512d fast_log_t(__m512d x) {
  const __m512i bits = _mm512_castpd_si512(x);
  __m512d e = _mm512_sub_pd(small_u64_to_double(_mm512_srli_epi64(bits, 52)),
                            _mm512_set1_pd(1022.0));
  __m512d m = _mm512_castsi512_pd(_mm512_or_si512(
      _mm512_and_si512(bits, _mm512_set1_epi64(0x000fffffffffffffLL)),
      _mm512_set1_epi64(0x3fe0000000000000LL)));
  const __mmask8 fold = _mm512_cmp_pd_mask(
      m, _mm512_set1_pd(0.70710678118654752440), _CMP_LT_OQ);
  m = _mm512_mask_add_pd(m, fold, m, m);
  e = _mm512_mask_sub_pd(e, fold, e, one());
  const __m512d r = _mm512_div_pd(_mm512_sub_pd(m, one()),
                                  _mm512_add_pd(m, one()));
  const __m512d r2 = _mm512_mul_pd(r, r);
  __m512d p = _mm512_set1_pd(0.2857142857142857);
  p = _mm512_fmadd_pd(p, r2, _mm512_set1_pd(0.4));
  p = _mm512_fmadd_pd(p, r2, _mm512_set1_pd(0.6666666666666666));
  p = _mm512_fmadd_pd(p, r2, _mm512_set1_pd(2.0));
  return _mm512_fmadd_pd(e, _mm512_set1_pd(6.93147180559945286227e-01),
                         _mm512_mul_pd(p, r));
}

// exp(y) for y <= 0 — mirrors fast_exp_t.
inline __m512d fast_exp_t(__m512d y) {
  __m512d n = _mm512_roundscale_pd(
      _mm512_fmadd_pd(y, _mm512_set1_pd(1.4426950408889634074),
                      _mm512_set1_pd(0.5)),
      kFloor);
  n = _mm512_max_pd(n, _mm512_set1_pd(-1022.0));
  __m512d r = _mm512_fmadd_pd(n, _mm512_set1_pd(-6.93145751953125e-1), y);
  r = _mm512_fmadd_pd(n, _mm512_set1_pd(-1.42860682030941723212e-6), r);
  __m512d p = _mm512_set1_pd(1.3888888888888889e-3);
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(8.333333333333333e-3));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(4.1666666666666664e-2));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(0.16666666666666666));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(0.5));
  p = _mm512_fmadd_pd(p, r, one());
  p = _mm512_fmadd_pd(p, r, one());
  const __m512i ni = _mm512_cvttpd_epi64(n);
  const __m512d scale = _mm512_castsi512_pd(_mm512_slli_epi64(
      _mm512_add_epi64(ni, _mm512_set1_epi64(1023)), 52));
  const __m512d out = _mm512_mul_pd(p, scale);
  const __mmask8 tiny =
      _mm512_cmp_pd_mask(y, _mm512_set1_pd(-708.0), _CMP_LT_OQ);
  return _mm512_maskz_mov_pd(static_cast<__mmask8>(~tiny), out);
}

// sin/cos of 2*pi*t — mirrors sincos2pi_t.  Quadrant bit 0 swaps sin and
// cos, bit 1 negates sin, bit 0 ^ bit 1 negates cos.
inline void sincos2pi_t(__m512d t, __m512d& sin_out, __m512d& cos_out) {
  const __m512d a = _mm512_mul_pd(_mm512_set1_pd(4.0), t);
  const __m512d k =
      _mm512_roundscale_pd(_mm512_add_pd(a, _mm512_set1_pd(0.5)), kFloor);
  const __m512d x = _mm512_mul_pd(_mm512_sub_pd(a, k),
                                  _mm512_set1_pd(1.5707963267948966));
  const __m512d x2 = _mm512_mul_pd(x, x);
  __m512d sp = _mm512_set1_pd(-1.984126984126984e-4);
  sp = _mm512_fmadd_pd(sp, x2, _mm512_set1_pd(8.3333333333333333e-3));
  sp = _mm512_fmadd_pd(sp, x2, _mm512_set1_pd(-0.16666666666666666));
  const __m512d sinx = _mm512_fmadd_pd(_mm512_mul_pd(sp, x2), x, x);
  __m512d cp = _mm512_set1_pd(2.48015873015873e-5);
  cp = _mm512_fmadd_pd(cp, x2, _mm512_set1_pd(-1.3888888888888889e-3));
  cp = _mm512_fmadd_pd(cp, x2, _mm512_set1_pd(4.1666666666666664e-2));
  cp = _mm512_fmadd_pd(cp, x2, _mm512_set1_pd(-0.5));
  const __m512d cosx = _mm512_fmadd_pd(cp, x2, one());
  const __m512i q = _mm512_cvttpd_epi64(k);
  const __mmask8 swap = _mm512_test_epi64_mask(q, _mm512_set1_epi64(1));
  const __mmask8 sneg = _mm512_test_epi64_mask(q, _mm512_set1_epi64(2));
  const __mmask8 cneg = static_cast<__mmask8>(swap ^ sneg);
  const __m512d s = _mm512_mask_blend_pd(swap, sinx, cosx);
  const __m512d c = _mm512_mask_blend_pd(swap, cosx, sinx);
  sin_out = _mm512_mask_xor_pd(s, sneg, s, sign_bit());
  cos_out = _mm512_mask_xor_pd(c, cneg, c, sign_bit());
}

// Radial half of the fused Box-Muller group — mirrors bm_radial4: 8 packed
// words -> v = -2 log_t(u1), u1 from the words' high 32 bits.
inline __m512d bm_radial8(__m512i ww) {
  const __m512d u1 = _mm512_mul_pd(
      _mm512_add_pd(small_u64_to_double(_mm512_srli_epi64(ww, 32)), one()),
      inv_two32());
  return _mm512_mul_pd(_mm512_set1_pd(-2.0), fast_log_t(u1));
}

// Finish half — mirrors bm_finish4: square-root the radial operand, rotate
// by the angular uniform (low 32 bits), interleave and store 16 normals.
inline void bm_finish8(__m512i ww, __m512d v, double* out) {
  const __m512d r = _mm512_sqrt_pd(v);
  const __m512i lo32 = _mm512_and_si512(ww, _mm512_set1_epi64(0xffffffffLL));
  const __m512d u2 = _mm512_mul_pd(small_u64_to_double(lo32), inv_two32());
  __m512d s, c;
  sincos2pi_t(u2, s, c);
  const __m512d rc = _mm512_mul_pd(r, c);
  const __m512d rs = _mm512_mul_pd(r, s);
  const __m512i lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
  const __m512i hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
  _mm512_storeu_pd(out, _mm512_permutex2var_pd(rc, lo, rs));
  _mm512_storeu_pd(out + 8, _mm512_permutex2var_pd(rc, hi, rs));
}

inline std::uint64_t rotl64(std::uint64_t v, int k) {
  return (v << k) | (v >> (64 - k));
}

// Scalar xoshiro256** advance — mirrors xoshiro_next in
// simd_noise_kernels.inc (integer ops: identical on every tier).  Each
// tier TU keeps its own copy: an inline function shared through a header
// would be a weak symbol here, which the linker may hand to baseline
// callers (see SimdTierObjects).
inline std::uint64_t xoshiro_next(std::uint64_t s[4]) {
  const std::uint64_t s1 = s[1];
  const std::uint64_t out = rotl64(s1 * 5u, 7) * 9u;
  const std::uint64_t t = s1 << 17;
  s[2] ^= s[0];
  s[3] ^= s1;
  s[1] = s1 ^ s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl64(s[3], 45);
  return out;
}

inline __m512i load_words(const std::uint64_t* w) {
  return _mm512_loadu_si512(static_cast<const void*>(w));
}

// Two-pass block transform (see bm_block_fused in the AVX2 tier): `words`
// (a multiple of 8, at most 64) packed words -> 2*words normals.
inline void bm_block_fused(const std::uint64_t* w, std::size_t words,
                           double* out) {
  __m512d v[8];
  const std::size_t groups = words / 8;
  for (std::size_t g = 0; g < groups; ++g) {
    v[g] = bm_radial8(load_words(w + 8 * g));
  }
  for (std::size_t g = 0; g < groups; ++g) {
    bm_finish8(load_words(w + 8 * g), v[g], out + 16 * g);
  }
}

// `words` (at most 64) packed words -> 2*words normals: the full groups
// of 8 through bm_block_fused, a last partial group of 1..7 words padded
// to 8 and truncated.
inline void bm_words(const std::uint64_t* w, std::size_t words,
                     double* out) {
  const std::size_t full = words / 8 * 8;
  bm_block_fused(w, full, out);
  if (full < words) {
    std::uint64_t pad[8] = {1, 1, 1, 1, 1, 1, 1, 1};
    double tmp[16];
    for (std::size_t j = full; j < words; ++j) pad[j - full] = w[j];
    bm_finish8(load_words(pad), bm_radial8(load_words(pad)), tmp);
    for (std::size_t j = 0; j < 2 * (words - full); ++j) {
      out[2 * full + j] = tmp[j];
    }
  }
}

// Phi(x) for 8 lanes — mirrors cdf_group_t.
inline __m512d cdf_group_t(__m512d x) {
  const __m512d z = _mm512_mul_pd(_mm512_andnot_pd(sign_bit(), x),
                                  _mm512_set1_pd(0.7071067811865476));
  const __m512d t = _mm512_div_pd(
      one(), _mm512_fmadd_pd(_mm512_set1_pd(0.3275911), z, one()));
  __m512d poly = _mm512_set1_pd(1.061405429);
  poly = _mm512_fmadd_pd(poly, t, _mm512_set1_pd(-1.453152027));
  poly = _mm512_fmadd_pd(poly, t, _mm512_set1_pd(1.421413741));
  poly = _mm512_fmadd_pd(poly, t, _mm512_set1_pd(-0.284496736));
  poly = _mm512_fmadd_pd(poly, t, _mm512_set1_pd(0.254829592));
  const __m512d e = fast_exp_t(_mm512_xor_pd(_mm512_mul_pd(z, z), sign_bit()));
  const __m512d half_erfc = _mm512_mul_pd(
      _mm512_mul_pd(_mm512_set1_pd(0.5), _mm512_mul_pd(poly, t)), e);
  const __mmask8 neg =
      _mm512_cmp_pd_mask(x, _mm512_setzero_pd(), _CMP_LT_OQ);
  return _mm512_mask_blend_pd(neg, _mm512_sub_pd(one(), half_erfc),
                              half_erfc);
}

std::uint64_t lt_mask64(const std::uint64_t* raw, const double* p,
                        bool lo_half) {
  std::uint64_t mask = 0;
  for (int g = 0; g < 8; ++g) {
    const __m512i r = load_words(raw + 8 * g);
    const __m512i half =
        lo_half ? _mm512_and_si512(r, _mm512_set1_epi64(0xffffffffLL))
                : _mm512_srli_epi64(r, 32);
    const __m512d u = _mm512_mul_pd(small_u64_to_double(half), inv_two32());
    mask |= static_cast<std::uint64_t>(_mm512_cmp_pd_mask(
                u, _mm512_loadu_pd(p + 8 * g), _CMP_LT_OQ))
            << (8 * g);
  }
  return mask;
}

}  // namespace

void boxmuller_fill(std::uint64_t s[4], double* out, std::size_t n) {
  // Blocks of up to 64 serially drawn words, each turned into two normals
  // 8 words at a time; position-fixed like every other tier.
  std::uint64_t w[64];
  for (std::size_t i = 0; i + 2 <= n; i += 128) {
    const std::size_t words = n - i < 128 ? (n - i) / 2 : 64;
    for (std::size_t j = 0; j < words; ++j) w[j] = xoshiro_next(s);
    bm_words(w, words, out + i);
  }
}

void fma_delay_block(const double* white, const double* flicker,
                     double white_gain, double flicker_gain, double base,
                     double* out, std::size_t n) {
  const __m512d wg = _mm512_set1_pd(white_gain);
  const __m512d fg = _mm512_set1_pd(flicker_gain);
  const __m512d b = _mm512_set1_pd(base);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::size_t left = n - i;
    const __mmask8 lanes =
        left >= 8 ? __mmask8{0xff} : static_cast<__mmask8>((1u << left) - 1);
    const __m512d inner =
        _mm512_fmadd_pd(fg, _mm512_maskz_loadu_pd(lanes, flicker + i), b);
    _mm512_mask_storeu_pd(
        out + i, lanes,
        _mm512_fmadd_pd(wg, _mm512_maskz_loadu_pd(lanes, white + i), inner));
  }
}

void xoshiro_soa_advance(std::uint64_t s[4][64], std::uint64_t* out) {
  for (int l = 0; l < 64; l += 8) {
    __m512i s0 = load_words(&s[0][l]);
    __m512i s1 = load_words(&s[1][l]);
    __m512i s2 = load_words(&s[2][l]);
    __m512i s3 = load_words(&s[3][l]);
    // result = rotl(s1*5, 7) * 9, with *5 and *9 as shift-adds.
    const __m512i x5 = _mm512_add_epi64(s1, _mm512_slli_epi64(s1, 2));
    const __m512i rot = _mm512_rol_epi64(x5, 7);
    _mm512_storeu_si512(out + l,
                        _mm512_add_epi64(rot, _mm512_slli_epi64(rot, 3)));
    const __m512i t = _mm512_slli_epi64(s1, 17);
    s2 = _mm512_xor_si512(s2, s0);
    s3 = _mm512_xor_si512(s3, s1);
    s1 = _mm512_xor_si512(s1, s2);
    s0 = _mm512_xor_si512(s0, s3);
    s2 = _mm512_xor_si512(s2, t);
    s3 = _mm512_rol_epi64(s3, 45);
    _mm512_storeu_si512(&s[0][l], s0);
    _mm512_storeu_si512(&s[1][l], s1);
    _mm512_storeu_si512(&s[2][l], s2);
    _mm512_storeu_si512(&s[3][l], s3);
  }
}

void xoshiro_soa_gaussian_fill(std::uint64_t s[4][64], double* out,
                               std::size_t n) {
  std::uint64_t w[64];
  for (std::size_t done = 0; done < n; done += 128) {
    xoshiro_soa_advance(s, w);
    bm_words(w, n - done < 128 ? (n - done) / 2 : 64, out + done);
  }
}

void sin2pi_batch_trimmed(const double* turns, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; i += 8) {
    const std::size_t left = n - i;
    const __mmask8 lanes =
        left >= 8 ? __mmask8{0xff} : static_cast<__mmask8>((1u << left) - 1);
    __m512d s, c;
    sincos2pi_t(_mm512_maskz_loadu_pd(lanes, turns + i), s, c);
    _mm512_mask_storeu_pd(out + i, lanes, s);
  }
}

void normal_cdf_batch_trimmed_gated(const double* x, double* out,
                                    std::size_t n, double cutoff) {
  // The gate stays per 4-lane group, like every other tier: each 8-lane
  // vector evaluates if either half has a lane below the cutoff, then
  // stores 1.0 over a complete half with none.  Lanes of an incomplete
  // half (the tail past the last full group of 4) always evaluate.
  const __m512d cut = _mm512_set1_pd(cutoff);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::size_t left = n - i;
    const __mmask8 lanes =
        left >= 8 ? __mmask8{0xff} : static_cast<__mmask8>((1u << left) - 1);
    const __m512d xx = _mm512_maskz_loadu_pd(lanes, x + i);
    const __mmask8 below =
        _mm512_mask_cmp_pd_mask(lanes, xx, cut, _CMP_LT_OQ);
    __mmask8 eval = 0;
    for (unsigned half : {0x0fu, 0xf0u}) {
      if ((lanes & half) != half || (below & half) != 0) {
        eval = static_cast<__mmask8>(eval | half);
      }
    }
    const __m512d v = eval == 0 ? one()
                                : _mm512_mask_blend_pd(eval, one(),
                                                       cdf_group_t(xx));
    _mm512_mask_storeu_pd(out + i, lanes, v);
  }
}

std::uint64_t uniform_lt_mask64_hi(const std::uint64_t* raw,
                                   const double* p) {
  return lt_mask64(raw, p, false);
}

std::uint64_t uniform_lt_mask64_lo(const std::uint64_t* raw,
                                   const double* p) {
  return lt_mask64(raw, p, true);
}

}  // namespace avx512_k

}  // namespace dhtrng::support::simd

#endif
