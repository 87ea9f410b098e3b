// AVX2 tier of the fast-noise kernels, written with intrinsics because the
// mixed integer/double control flow in the shared kernel source defeats the
// autovectorizer.  Every operation below mirrors the scalar tier
// (simd_noise_kernels.inc) one-for-one: the same IEEE-754 basic operations
// (+, -, *, /, sqrt), the same explicit FMAs in the same places, the same
// exact mask/select/bit operations.  Each of those is correctly rounded per
// lane, so this tier is bit-identical to the scalar tier — the property
// tests/noise/test_simd_dispatch.cpp asserts.  Only reached after the
// runtime __builtin_cpu_supports("avx2")/"fma" check in simd_noise.cpp.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace dhtrng::support::simd::avx2_k {

namespace {

// Vector constants are built where they are used (each folds to a
// constant-pool load).  A namespace-scope __m256d would be initialized by
// a static constructor that runs AVX stores before main, and so before
// the CPU check, on every host that links this library.
inline __m256d magic() {  // 2^52 with OR-able mantissa
  return _mm256_castsi256_pd(_mm256_set1_epi64x(0x4330000000000000LL));
}
inline __m256d two52() { return _mm256_set1_pd(0x1p52); }
inline __m256d inv_two32() { return _mm256_set1_pd(0x1p-32); }
inline __m256d sign_bit() { return _mm256_set1_pd(-0.0); }

inline std::uint64_t rotl64(std::uint64_t v, int k) {
  return (v << k) | (v >> (64 - k));
}

// Scalar xoshiro256** advance for the fused fill — the state recurrence is
// serial, only the Box-Muller math vectorizes.  Mirrors xoshiro_next in
// simd_noise_kernels.inc (integer ops: identical on every tier).
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

// double(x) for x < 2^52 — mirrors small_u64_to_double.
inline __m256d small_u64_to_double(__m256i x) {
  return _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(
                           x, _mm256_castpd_si256(magic()))),
                       two52());
}

// log(x) for x in (0, 1] — mirrors fast_log_t (4-term atanh series,
// single-constant ln2).
inline __m256d fast_log_t(__m256d x) {
  const __m256i bits = _mm256_castpd_si256(x);
  __m256d e = _mm256_sub_pd(small_u64_to_double(_mm256_srli_epi64(bits, 52)),
                            _mm256_set1_pd(1022.0));
  __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000fffffffffffffLL)),
      _mm256_set1_epi64x(0x3fe0000000000000LL)));
  const __m256d fold =
      _mm256_cmp_pd(m, _mm256_set1_pd(0.70710678118654752440), _CMP_LT_OQ);
  m = _mm256_add_pd(m, _mm256_and_pd(fold, m));
  e = _mm256_sub_pd(e, _mm256_and_pd(fold, _mm256_set1_pd(1.0)));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d r =
      _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d p = _mm256_set1_pd(0.2857142857142857);
  p = _mm256_fmadd_pd(p, r2, _mm256_set1_pd(0.4));
  p = _mm256_fmadd_pd(p, r2, _mm256_set1_pd(0.6666666666666666));
  p = _mm256_fmadd_pd(p, r2, _mm256_set1_pd(2.0));
  return _mm256_fmadd_pd(e, _mm256_set1_pd(6.93147180559945286227e-01),
                         _mm256_mul_pd(p, r));
}

// exp(y) for y <= 0 — mirrors fast_exp_t (Taylor cut at r^6/720).
inline __m256d fast_exp_t(__m256d y) {
  __m256d n = _mm256_floor_pd(_mm256_fmadd_pd(
      y, _mm256_set1_pd(1.4426950408889634074), _mm256_set1_pd(0.5)));
  n = _mm256_max_pd(n, _mm256_set1_pd(-1022.0));
  __m256d r = _mm256_fmadd_pd(n, _mm256_set1_pd(-6.93145751953125e-1), y);
  r = _mm256_fmadd_pd(n, _mm256_set1_pd(-1.42860682030941723212e-6), r);
  __m256d p = _mm256_set1_pd(1.3888888888888889e-3);
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(8.333333333333333e-3));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(4.1666666666666664e-2));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(0.16666666666666666));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(0.5));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));
  const __m128i ni = _mm256_cvttpd_epi32(n);
  const __m256i ni64 = _mm256_cvtepi32_epi64(ni);
  const __m256d scale = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(ni64, _mm256_set1_epi64x(1023)), 52));
  const __m256d out = _mm256_mul_pd(p, scale);
  const __m256d tiny = _mm256_cmp_pd(y, _mm256_set1_pd(-708.0), _CMP_LT_OQ);
  return _mm256_andnot_pd(tiny, out);
}

// sin/cos of 2*pi*t — mirrors sincos2pi_t (sin cut at x^7/7!,
// cos at x^8/8!).
inline void sincos2pi_t(__m256d t, __m256d& sin_out, __m256d& cos_out) {
  const __m256d a = _mm256_mul_pd(_mm256_set1_pd(4.0), t);
  const __m256d k = _mm256_floor_pd(_mm256_add_pd(a, _mm256_set1_pd(0.5)));
  const __m256d x = _mm256_mul_pd(_mm256_sub_pd(a, k),
                                  _mm256_set1_pd(1.5707963267948966));
  const __m256d x2 = _mm256_mul_pd(x, x);
  __m256d sp = _mm256_set1_pd(-1.984126984126984e-4);
  sp = _mm256_fmadd_pd(sp, x2, _mm256_set1_pd(8.3333333333333333e-3));
  sp = _mm256_fmadd_pd(sp, x2, _mm256_set1_pd(-0.16666666666666666));
  const __m256d sinx = _mm256_fmadd_pd(_mm256_mul_pd(sp, x2), x, x);
  __m256d cp = _mm256_set1_pd(2.48015873015873e-5);
  cp = _mm256_fmadd_pd(cp, x2, _mm256_set1_pd(-1.3888888888888889e-3));
  cp = _mm256_fmadd_pd(cp, x2, _mm256_set1_pd(4.1666666666666664e-2));
  cp = _mm256_fmadd_pd(cp, x2, _mm256_set1_pd(-0.5));
  const __m256d cosx = _mm256_fmadd_pd(cp, x2, _mm256_set1_pd(1.0));
  // Quadrant q = int(k) drives swap (bit 0), sin negation (bit 1) and cos
  // negation (bit 0 ^ bit 1).  blendv and the sign xor only read bit 63,
  // so the quadrant bits are shifted straight up instead of being widened
  // through compare/convert mask chains — same selections, ~5 fewer uops
  // on the shuffle-heavy ports.  Bits above 1 shift out, so no & 3 mask.
  const __m256i q64 = _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(k));
  const __m256i swap_bit = _mm256_slli_epi64(q64, 63);
  const __m256i sneg_bit = _mm256_slli_epi64(q64, 62);
  const __m256d swap_m = _mm256_castsi256_pd(swap_bit);
  __m256d s = _mm256_blendv_pd(sinx, cosx, swap_m);
  __m256d c = _mm256_blendv_pd(cosx, sinx, swap_m);
  s = _mm256_xor_pd(s,
                    _mm256_and_pd(_mm256_castsi256_pd(sneg_bit), sign_bit()));
  c = _mm256_xor_pd(
      c, _mm256_and_pd(
             _mm256_castsi256_pd(_mm256_xor_si256(swap_bit, sneg_bit)),
             sign_bit()));
  sin_out = s;
  cos_out = c;
}

// Radial half of the fused Box-Muller group: 4 packed words -> the
// squared-radius operand v = -2 log_t(u1), where u1 comes from the words'
// high 32 bits.  Kept separate from the finish half so block transforms
// can run it as its own pass: the log's divide chain is ~60 cycles deep,
// and batching the radial pass over many independent groups lets the
// out-of-order core keep the divider busy instead of stalling on one
// group's log -> sqrt -> sincos chain end to end.
inline __m256d bm_radial4(__m256i ww) {
  const __m256d u1 = _mm256_mul_pd(
      _mm256_add_pd(small_u64_to_double(_mm256_srli_epi64(ww, 32)),
                    _mm256_set1_pd(1.0)),
      inv_two32());
  return _mm256_mul_pd(_mm256_set1_pd(-2.0), fast_log_t(u1));
}

// Finish half: square-root the radial operand, rotate by the angular
// uniform (low 32 bits), interleave and store 8 normals.
inline void bm_finish4(__m256i ww, __m256d v, double* out) {
  const __m256d r = _mm256_sqrt_pd(v);
  const __m256d u2 = _mm256_mul_pd(
      small_u64_to_double(
          _mm256_and_si256(ww, _mm256_set1_epi64x(0xffffffffLL))),
      inv_two32());
  __m256d s, c;
  sincos2pi_t(u2, s, c);
  const __m256d rc = _mm256_mul_pd(r, c);
  const __m256d rs = _mm256_mul_pd(r, s);
  const __m256d lo = _mm256_unpacklo_pd(rc, rs);
  const __m256d hi = _mm256_unpackhi_pd(rc, rs);
  _mm256_storeu_pd(out, _mm256_permute2f128_pd(lo, hi, 0x20));
  _mm256_storeu_pd(out + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
}

// One fused Box-Muller group: 4 packed words -> 8 trimmed-grade normals
// (hi 32 bits radial, lo 32 bits angular) — mirrors bm_group_fused.
inline void bm_group_fused4(const std::uint64_t* w, double* out) {
  const __m256i ww =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w));
  bm_finish4(ww, bm_radial4(ww), out);
}

// Two-pass block transform: words (a multiple of 4, at most 64) packed
// words -> 2*words normals.  Pass one computes every group's radial
// operand, pass two square-roots and rotates.  Each word's outputs are
// exactly bm_group_fused4's (the fused mapping is position-fixed), so
// this is a pure instruction-scheduling change — verified bit-identical
// by the SimdDispatch parity suite.
inline void bm_block_fused(const std::uint64_t* w, std::size_t words,
                           double* out) {
  __m256d v[16];
  const std::size_t groups = words / 4;
  for (std::size_t g = 0; g < groups; ++g) {
    v[g] = bm_radial4(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 4 * g)));
  }
  for (std::size_t g = 0; g < groups; ++g) {
    bm_finish4(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 4 * g)),
        v[g], out + 8 * g);
  }
}

}  // namespace

void boxmuller_fill(std::uint64_t s[4], double* out, std::size_t n) {
  // Fused fill: the xoshiro recurrence advances serially (loop-carried
  // dependency), the per-word Box-Muller math runs in two-pass blocks of
  // 64 words / 128 normals.  Position-fixed word->normal mapping keeps
  // this bit-identical to the scalar tier's group-of-8 loop.
  std::uint64_t w[64];
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    for (int j = 0; j < 64; ++j) w[j] = xoshiro_next(s);
    bm_block_fused(w, 64, out + i);
  }
  for (; i + 8 <= n; i += 8) {
    for (int j = 0; j < 4; ++j) w[j] = xoshiro_next(s);
    bm_group_fused4(w, out + i);
  }
  const std::size_t rem = n - i;  // 0, 2, 4 or 6
  if (rem != 0) {
    std::uint64_t pad[4] = {1, 1, 1, 1};
    double tmp[8];
    for (std::size_t j = 0; j < rem / 2; ++j) pad[j] = xoshiro_next(s);
    bm_group_fused4(pad, tmp);
    for (std::size_t j = 0; j < rem; ++j) out[i + j] = tmp[j];
  }
}

void fma_delay_block(const double* white, const double* flicker,
                     double white_gain, double flicker_gain, double base,
                     double* out, std::size_t n) {
  const __m256d wg = _mm256_set1_pd(white_gain);
  const __m256d fg = _mm256_set1_pd(flicker_gain);
  const __m256d b = _mm256_set1_pd(base);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d inner =
        _mm256_fmadd_pd(fg, _mm256_loadu_pd(flicker + i), b);
    _mm256_storeu_pd(out + i,
                     _mm256_fmadd_pd(wg, _mm256_loadu_pd(white + i), inner));
  }
  // -mfma makes std::fma the scalar FMA instruction, not a libm call.
  for (; i < n; ++i) {
    out[i] = std::fma(white_gain, white[i],
                      std::fma(flicker_gain, flicker[i], base));
  }
}

void xoshiro_soa_advance(std::uint64_t s[4][64], std::uint64_t* out);

void xoshiro_soa_gaussian_fill(std::uint64_t s[4][64], double* out,
                               std::size_t n) {
  std::uint64_t w[64];
  std::size_t done = 0;
  while (done < n) {
    xoshiro_soa_advance(s, w);
    const std::size_t take = n - done < 128 ? n - done : 128;
    std::size_t j = take / 8 * 8;
    bm_block_fused(w, j / 2, out + done);
    if (j < take) {
      const std::size_t rem = take - j;  // 2, 4 or 6
      std::uint64_t pad[4] = {1, 1, 1, 1};
      double tmp[8];
      for (std::size_t kw = 0; kw < rem / 2; ++kw) pad[kw] = w[j / 2 + kw];
      bm_group_fused4(pad, tmp);
      for (std::size_t kw = 0; kw < rem; ++kw) out[done + j + kw] = tmp[kw];
    }
    done += take;
  }
}

void sin2pi_batch_trimmed(const double* turns, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d s, c;
    sincos2pi_t(_mm256_loadu_pd(turns + i), s, c);
    _mm256_storeu_pd(out + i, s);
  }
  if (i < n) {
    double tin[4] = {0, 0, 0, 0}, tout[4];
    for (std::size_t j = i; j < n; ++j) tin[j - i] = turns[j];
    __m256d s, c;
    sincos2pi_t(_mm256_loadu_pd(tin), s, c);
    _mm256_storeu_pd(tout, s);
    for (std::size_t j = i; j < n; ++j) out[j] = tout[j - i];
  }
}

namespace {

// Phi(x) for 4 lanes — mirrors normal_cdf_kernel_trimmed (A&S 7.1.26
// rational term over the trimmed exponential).
inline __m256d cdf_group_t(__m256d x) {
  const __m256d z = _mm256_mul_pd(_mm256_andnot_pd(sign_bit(), x),
                                  _mm256_set1_pd(0.7071067811865476));
  const __m256d t = _mm256_div_pd(
      _mm256_set1_pd(1.0),
      _mm256_fmadd_pd(_mm256_set1_pd(0.3275911), z, _mm256_set1_pd(1.0)));
  __m256d poly = _mm256_set1_pd(1.061405429);
  poly = _mm256_fmadd_pd(poly, t, _mm256_set1_pd(-1.453152027));
  poly = _mm256_fmadd_pd(poly, t, _mm256_set1_pd(1.421413741));
  poly = _mm256_fmadd_pd(poly, t, _mm256_set1_pd(-0.284496736));
  poly = _mm256_fmadd_pd(poly, t, _mm256_set1_pd(0.254829592));
  const __m256d e =
      fast_exp_t(_mm256_xor_pd(_mm256_mul_pd(z, z), sign_bit()));
  const __m256d half_erfc = _mm256_mul_pd(
      _mm256_mul_pd(_mm256_set1_pd(0.5), _mm256_mul_pd(poly, t)), e);
  const __m256d neg = _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_LT_OQ);
  return _mm256_blendv_pd(_mm256_sub_pd(_mm256_set1_pd(1.0), half_erfc),
                          half_erfc, neg);
}

}  // namespace

void normal_cdf_batch_trimmed_gated(const double* x, double* out,
                                    std::size_t n, double cutoff) {
  // Same per-4 gate as the scalar tier: a group with no lane below the
  // cutoff stores 1.0 and skips the CDF.  Tail lanes always evaluate.
  const __m256d cut = _mm256_set1_pd(cutoff);
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xx = _mm256_loadu_pd(x + i);
    if (_mm256_movemask_pd(_mm256_cmp_pd(xx, cut, _CMP_LT_OQ)) == 0) {
      _mm256_storeu_pd(out + i, one);
    } else {
      _mm256_storeu_pd(out + i, cdf_group_t(xx));
    }
  }
  if (i < n) {
    double tin[4] = {0, 0, 0, 0}, tout[4];
    for (std::size_t j = i; j < n; ++j) tin[j - i] = x[j];
    _mm256_storeu_pd(tout, cdf_group_t(_mm256_loadu_pd(tin)));
    for (std::size_t j = i; j < n; ++j) out[j] = tout[j - i];
  }
}

std::uint64_t uniform_lt_mask64_hi(const std::uint64_t* raw,
                                   const double* p) {
  std::uint64_t mask = 0;
  for (int g = 0; g < 16; ++g) {
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(raw + 4 * g));
    const __m256d u = _mm256_mul_pd(
        small_u64_to_double(_mm256_srli_epi64(r, 32)), inv_two32());
    const __m256d lt = _mm256_cmp_pd(u, _mm256_loadu_pd(p + 4 * g),
                                     _CMP_LT_OQ);
    mask |= static_cast<std::uint64_t>(
                static_cast<unsigned>(_mm256_movemask_pd(lt)))
            << (4 * g);
  }
  return mask;
}

std::uint64_t uniform_lt_mask64_lo(const std::uint64_t* raw,
                                   const double* p) {
  std::uint64_t mask = 0;
  for (int g = 0; g < 16; ++g) {
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(raw + 4 * g));
    const __m256d u = _mm256_mul_pd(
        small_u64_to_double(
            _mm256_and_si256(r, _mm256_set1_epi64x(0xffffffffLL))),
        inv_two32());
    const __m256d lt = _mm256_cmp_pd(u, _mm256_loadu_pd(p + 4 * g),
                                     _CMP_LT_OQ);
    mask |= static_cast<std::uint64_t>(
                static_cast<unsigned>(_mm256_movemask_pd(lt)))
            << (4 * g);
  }
  return mask;
}

void xoshiro_soa_advance(std::uint64_t s[4][64], std::uint64_t* out) {
  for (int g = 0; g < 16; ++g) {
    const int l = 4 * g;
    __m256i s0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&s[0][l]));
    __m256i s1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&s[1][l]));
    __m256i s2 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&s[2][l]));
    __m256i s3 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&s[3][l]));
    // result = rotl(s1*5, 7) * 9, with *5 and *9 as shift-adds.
    const __m256i x5 = _mm256_add_epi64(s1, _mm256_slli_epi64(s1, 2));
    const __m256i rot = _mm256_or_si256(_mm256_slli_epi64(x5, 7),
                                        _mm256_srli_epi64(x5, 57));
    const __m256i res = _mm256_add_epi64(rot, _mm256_slli_epi64(rot, 3));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + l), res);
    const __m256i t = _mm256_slli_epi64(s1, 17);
    s2 = _mm256_xor_si256(s2, s0);
    s3 = _mm256_xor_si256(s3, s1);
    s1 = _mm256_xor_si256(s1, s2);
    s0 = _mm256_xor_si256(s0, s3);
    s2 = _mm256_xor_si256(s2, t);
    s3 = _mm256_or_si256(_mm256_slli_epi64(s3, 45),
                         _mm256_srli_epi64(s3, 19));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&s[0][l]), s0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&s[1][l]), s1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&s[2][l]), s2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&s[3][l]), s3);
  }
}

}  // namespace dhtrng::support::simd::avx2_k

#endif
