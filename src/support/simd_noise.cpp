// Dispatch layer for the fast-noise kernels + the scalar tier (this TU
// compiles simd_noise_kernels.inc with baseline flags; the NEON tier
// recompiles the same include, the AVX2 and AVX-512 tiers mirror it in
// intrinsics — see CMakeLists.txt).

#include "support/simd_noise.h"

#include <atomic>
#include <cstdlib>
#include <initializer_list>

#include "support/rng.h"

#define DHTRNG_KERNEL_NS scalar_k
#include "support/simd_noise_kernels.inc"
#undef DHTRNG_KERNEL_NS

namespace dhtrng::support::simd {

// Every tier exports the same kernel set; the per-tier namespaces repeat
// this list (kept as a macro so a new kernel can't be declared for one
// tier and forgotten for another).
#define DHTRNG_KERNEL_DECLS                                                   \
  void boxmuller_fill(std::uint64_t s[4], double* out, std::size_t n);        \
  void fma_delay_block(const double* white, const double* flicker,            \
                       double white_gain, double flicker_gain, double base,   \
                       double* out, std::size_t n);                           \
  void xoshiro_soa_gaussian_fill(std::uint64_t s[4][64], double* out,         \
                                 std::size_t n);                              \
  void sin2pi_batch_trimmed(const double* turns, double* out, std::size_t n); \
  void normal_cdf_batch_trimmed_gated(const double* x, double* out,           \
                                      std::size_t n, double cutoff);          \
  std::uint64_t uniform_lt_mask64_hi(const std::uint64_t* raw,                \
                                     const double* p);                        \
  std::uint64_t uniform_lt_mask64_lo(const std::uint64_t* raw,                \
                                     const double* p);                        \
  void xoshiro_soa_advance(std::uint64_t s[4][64], std::uint64_t* out);

#if defined(__x86_64__) || defined(_M_X64)
// Defined in simd_noise_avx2.cpp (-mavx2 -mfma) and simd_noise_avx512.cpp
// (-mavx512f -mavx512dq -mavx512vl); only ever called after the runtime
// CPU check.
namespace avx2_k {
DHTRNG_KERNEL_DECLS
}  // namespace avx2_k
namespace avx512_k {
DHTRNG_KERNEL_DECLS
}  // namespace avx512_k
// `return f(...)` is valid for void f, so one form covers every kernel.
#define DHTRNG_DISPATCH(call)             \
  switch (active_tier()) {                \
    case Tier::Avx512:                    \
      return avx512_k::call;              \
    case Tier::Avx2:                      \
      return avx2_k::call;                \
    default:                              \
      return scalar_k::call;              \
  }
#elif defined(__aarch64__)
// Defined in simd_noise_neon.cpp; NEON is baseline on aarch64.
namespace neon_k {
DHTRNG_KERNEL_DECLS
}  // namespace neon_k
#define DHTRNG_DISPATCH(call)             \
  switch (active_tier()) {                \
    case Tier::Neon:                      \
      return neon_k::call;                \
    default:                              \
      return scalar_k::call;              \
  }
#else
#define DHTRNG_DISPATCH(call) return scalar_k::call;
#endif

namespace {

bool cpu_supports(Tier t) {
  switch (t) {
    case Tier::Scalar:
      return true;
#if defined(__aarch64__)
    case Tier::Neon:
      return true;
#elif (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
    case Tier::Avx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case Tier::Avx512:
      return cpu_supports(Tier::Avx2) && __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq") &&
             __builtin_cpu_supports("avx512vl");
#endif
    default:
      return false;
  }
}

Tier hardware_tier() {
  for (Tier t : {Tier::Avx512, Tier::Avx2, Tier::Neon}) {
    if (cpu_supports(t)) return t;
  }
  return Tier::Scalar;
}

std::atomic<Tier>& active_tier_slot() {
  static std::atomic<Tier> tier{detected_tier()};
  return tier;
}

}  // namespace

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::Avx2:
      return "avx2";
    case Tier::Avx512:
      return "avx512";
    case Tier::Neon:
      return "neon";
    case Tier::Scalar:
      break;
  }
  return "scalar";
}

Tier detected_tier() {
  static const Tier tier = [] {
    const char* force = std::getenv("DHTRNG_FORCE_SCALAR");
    if (force != nullptr && force[0] == '1') return Tier::Scalar;
    return hardware_tier();
  }();
  return tier;
}

Tier active_tier() { return active_tier_slot().load(std::memory_order_relaxed); }

Tier force_tier(Tier t) {
  if (!cpu_supports(t)) t = Tier::Scalar;
  return active_tier_slot().exchange(t, std::memory_order_relaxed);
}

void boxmuller_fill(std::uint64_t s[4], double* out, std::size_t n) {
  DHTRNG_DISPATCH(boxmuller_fill(s, out, n))
}

void fma_delay_block(const double* white, const double* flicker,
                     double white_gain, double flicker_gain, double base,
                     double* out, std::size_t n) {
  DHTRNG_DISPATCH(fma_delay_block(white, flicker, white_gain, flicker_gain,
                                  base, out, n))
}

void sin2pi_batch_trimmed(const double* turns, double* out, std::size_t n) {
  DHTRNG_DISPATCH(sin2pi_batch_trimmed(turns, out, n))
}

void normal_cdf_batch_trimmed_gated(const double* x, double* out,
                                    std::size_t n, double cutoff) {
  DHTRNG_DISPATCH(normal_cdf_batch_trimmed_gated(x, out, n, cutoff))
}

std::uint64_t uniform_lt_mask64_hi(const std::uint64_t* raw, const double* p) {
  DHTRNG_DISPATCH(uniform_lt_mask64_hi(raw, p))
}

std::uint64_t uniform_lt_mask64_lo(const std::uint64_t* raw, const double* p) {
  DHTRNG_DISPATCH(uniform_lt_mask64_lo(raw, p))
}

void XoshiroSoA::seed_lane(std::size_t lane, std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (int j = 0; j < 4; ++j) s[j][lane] = sm.next();
}

void XoshiroSoA::advance(std::uint64_t* out) {
  DHTRNG_DISPATCH(xoshiro_soa_advance(s, out))
}

void XoshiroSoA::fill(std::uint64_t* out, std::size_t n) {
  for (std::size_t i = 0; i + 64 <= n; i += 64) advance(out + i);
}

void XoshiroSoA::gaussian_fill(double* out, std::size_t n) {
  DHTRNG_DISPATCH(xoshiro_soa_gaussian_fill(s, out, n))
}

}  // namespace dhtrng::support::simd

namespace dhtrng::support {

void Xoshiro256::gaussian_fill_fast(double* out, std::size_t n) noexcept {
  // Fused xoshiro + Box-Muller straight from the generator state — no
  // intermediate raw buffer.  The fused stream is position-fixed, so any
  // chunking of fills yields the same values (the pre-fusion fill-then-
  // transform path only guaranteed that per chunk).
  simd::boxmuller_fill(s_, out, n & ~std::size_t{1});
  if ((n & 1) != 0) {
    // Odd tail: the fused kernel produces pairs, so one draw of the final
    // word is discarded (as with the pre-fusion path).
    double pair[2];
    simd::boxmuller_fill(s_, pair, 2);
    out[n - 1] = pair[0];
  }
}

}  // namespace dhtrng::support
