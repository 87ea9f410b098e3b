// CPU-dispatch parity for the SIMD noise kernels (support/simd_noise.h).
//
// The contract under test is the one docs/architecture.md documents: every
// dispatch tier (scalar baseline, AVX2, AVX-512, NEON) produces
// bit-identical doubles — the tiers are compiled from the same operation
// sequence with -ffp-contract=off, so there is no "documented ulp bound" to
// allow; the bound is zero.  Each parity test runs the kernel under every
// vector tier this CPU supports (support::simd::force_tier) and compares
// it elementwise with the forced-scalar path, with exact equality.  On a
// machine with no vector tier the loops run zero times — CI runs the suite
// once natively and once under DHTRNG_FORCE_SCALAR=1, so both code paths
// stay covered.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dhtrng.h"
#include "support/rng.h"
#include "support/sha256.h"
#include "support/simd_noise.h"

namespace simd = dhtrng::support::simd;

namespace {

/// RAII tier override: force a tier for one test, restore on exit so test
/// order never leaks a scalar override into the rest of the suite.
class TierScope {
 public:
  explicit TierScope(simd::Tier t) : prev_(simd::force_tier(t)) {}
  ~TierScope() { simd::force_tier(prev_); }

 private:
  simd::Tier prev_;
};

/// Every vector tier force_tier() accepts on this CPU (it clamps the
/// others to Scalar).
std::vector<simd::Tier> vector_tiers() {
  std::vector<simd::Tier> tiers;
  for (simd::Tier t :
       {simd::Tier::Avx2, simd::Tier::Avx512, simd::Tier::Neon}) {
    TierScope probe(t);
    if (simd::active_tier() == t) tiers.push_back(t);
  }
  return tiers;
}

std::vector<std::uint64_t> raw_block(std::size_t n, std::uint64_t seed) {
  dhtrng::support::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> raw(n);
  rng.fill_raw(raw.data(), n);
  return raw;
}

}  // namespace

TEST(SimdDispatch, DetectedTierIsValidAndNamed) {
  const simd::Tier t = simd::detected_tier();
  EXPECT_TRUE(t == simd::Tier::Scalar || t == simd::Tier::Avx2 ||
              t == simd::Tier::Avx512 || t == simd::Tier::Neon);
  EXPECT_STREQ(simd::tier_name(simd::Tier::Scalar), "scalar");
  EXPECT_STREQ(simd::tier_name(simd::Tier::Avx2), "avx2");
  EXPECT_STREQ(simd::tier_name(simd::Tier::Avx512), "avx512");
  EXPECT_STREQ(simd::tier_name(simd::Tier::Neon), "neon");
  // The active tier starts at the detected tier (modulo an override by a
  // concurrently-registered test, which TierScope prevents).
  EXPECT_TRUE(simd::active_tier() == simd::detected_tier());
}

TEST(SimdDispatch, ForceTierRestoresAndClampsToHardware) {
  const simd::Tier original = simd::active_tier();
  {
    TierScope scalar(simd::Tier::Scalar);
    EXPECT_EQ(simd::active_tier(), simd::Tier::Scalar);
    // A tier the hardware does not support clamps to scalar rather than
    // dispatching into unreachable code.
#if defined(__x86_64__) || defined(_M_X64)
    TierScope bogus(simd::Tier::Neon);
    EXPECT_EQ(simd::active_tier(), simd::Tier::Scalar);
#elif defined(__aarch64__)
    TierScope bogus(simd::Tier::Avx2);
    EXPECT_EQ(simd::active_tier(), simd::Tier::Scalar);
#endif
  }
  EXPECT_EQ(simd::active_tier(), original);
  // Every tier the CPU supports can be forced, not only the best one: an
  // AVX-512 host accepts AVX2 too.
  const auto tiers = vector_tiers();
  if (std::find(tiers.begin(), tiers.end(), simd::Tier::Avx512) !=
      tiers.end()) {
    EXPECT_NE(std::find(tiers.begin(), tiers.end(), simd::Tier::Avx2),
              tiers.end());
  }
}

TEST(SimdDispatch, ForceScalarEnvPinsDetection) {
  const char* force = std::getenv("DHTRNG_FORCE_SCALAR");
  if (force == nullptr || force[0] != '1') {
    GTEST_SKIP() << "DHTRNG_FORCE_SCALAR not set; covered by the CI "
                    "dispatch-parity step";
  }
  EXPECT_EQ(simd::detected_tier(), simd::Tier::Scalar);
  EXPECT_EQ(simd::active_tier(), simd::Tier::Scalar);
}

TEST(SimdDispatch, XoshiroSoANativeMatchesScalar) {
  constexpr std::size_t kN = 64 * 32;
  const auto fill_on = [](simd::Tier t) {
    TierScope scope(t);
    simd::XoshiroSoA x;
    for (std::size_t l = 0; l < 64; ++l) x.seed_lane(l, 1000 + l);
    std::vector<std::uint64_t> out(kN);
    x.fill(out.data(), kN);
    return out;
  };
  const auto scalar = fill_on(simd::Tier::Scalar);
  for (simd::Tier t : vector_tiers()) {
    EXPECT_EQ(fill_on(t), scalar) << simd::tier_name(t);
  }
}

TEST(SimdDispatch, BoxmullerFillNativeMatchesScalarBitwise) {
  constexpr std::size_t kN = 4096;
  // Seed identical xoshiro states the way Xoshiro256 does (SplitMix64
  // expansion), advance each through the fused fill on one tier.  The
  // fill advances the state identically too — a caller interleaving fused
  // fills with raw draws stays on one stream across tiers.
  struct Run {
    std::vector<double> z;
    std::vector<std::uint64_t> state;
  };
  const auto fill_on = [](simd::Tier t) {
    TierScope scope(t);
    std::uint64_t st[4];
    dhtrng::support::SplitMix64 seeder(0xf05ed);
    for (auto& w : st) w = seeder.next();
    Run run{std::vector<double>(kN), {}};
    simd::boxmuller_fill(st, run.z.data(), kN);
    run.state.assign(st, st + 4);
    return run;
  };
  const Run scalar = fill_on(simd::Tier::Scalar);
  for (simd::Tier t : vector_tiers()) {
    SCOPED_TRACE(simd::tier_name(t));
    const Run native = fill_on(t);
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(native.z[i], scalar.z[i]) << "draw " << i;
    }
    EXPECT_EQ(native.state, scalar.state);
  }
}

TEST(SimdDispatch, BoxmullerFillEveryEvenLengthMatchesScalar) {
  // Every even length up to two full 128-normal blocks plus a tail, so
  // each tier's partial-group and partial-block paths run at every width.
  const auto fill_on = [](simd::Tier t, std::size_t n) {
    TierScope scope(t);
    std::uint64_t st[4];
    dhtrng::support::SplitMix64 seeder(0xb0c5 + n);
    for (auto& w : st) w = seeder.next();
    std::vector<double> z(n);
    simd::boxmuller_fill(st, z.data(), n);
    std::vector<std::uint64_t> state(st, st + 4);
    return std::make_pair(z, state);
  };
  for (std::size_t n = 2; n <= 258; n += 2) {
    const auto scalar = fill_on(simd::Tier::Scalar, n);
    for (simd::Tier t : vector_tiers()) {
      const auto native = fill_on(t, n);
      ASSERT_EQ(native.first, scalar.first) << simd::tier_name(t) << " n=" << n;
      ASSERT_EQ(native.second, scalar.second)
          << simd::tier_name(t) << " n=" << n;
    }
  }
}

TEST(SimdDispatch, FmaDelayBlockMatchesScalarBitwise) {
  // Signed zeros, subnormals and large gains alongside ordinary normals;
  // products stay finite, so every result is a number and the tiers must
  // agree on every bit, the sign of zero included.
  constexpr std::size_t kMax = 300;
  const double specials[] = {0.0,     -0.0,     4.9e-324, -4.9e-324,
                             2.2e-310, -1e-308, 1e150,    -1e150,
                             1.0,      -1.0};
  dhtrng::support::Xoshiro256 rng(0xde1a);
  std::vector<double> white(kMax), flicker(kMax);
  for (std::size_t i = 0; i < kMax; ++i) {
    white[i] = i % 7 == 0 ? specials[i / 7 % 10] : rng.gaussian();
    flicker[i] = i % 5 == 0 ? specials[i / 5 % 10] : rng.gaussian();
  }
  struct Gains {
    double white, flicker, base;
  };
  const Gains gains[] = {{1.0, 0.5, 120.0},
                         {-0.0, 0.0, -0.0},
                         {2.2e-310, -4.9e-324, 0.0},
                         {1e150, -1e150, 1e300},
                         {0.3, 1.7, -85.5}};
  constexpr double kSentinel = -7.25;
  const auto bits_of = [](const std::vector<double>& v) {
    std::vector<std::uint64_t> b(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      b[i] = std::bit_cast<std::uint64_t>(v[i]);
    }
    return b;
  };
  const auto run_on = [&](simd::Tier t, const Gains& g, std::size_t n) {
    TierScope scope(t);
    std::vector<double> out(kMax, kSentinel);
    simd::fma_delay_block(white.data(), flicker.data(), g.white, g.flicker,
                          g.base, out.data(), n);
    return bits_of(out);
  };
  for (const Gains& g : gains) {
    for (std::size_t n = 1; n <= kMax; ++n) {
      const auto scalar = run_on(simd::Tier::Scalar, g, n);
      ASSERT_EQ(scalar[n - 1],
                std::bit_cast<std::uint64_t>(std::fma(
                    g.white, white[n - 1],
                    std::fma(g.flicker, flicker[n - 1], g.base))));
      // Nothing past n is written.
      ASSERT_EQ(std::count(scalar.begin() + static_cast<std::ptrdiff_t>(n),
                           scalar.end(), std::bit_cast<std::uint64_t>(kSentinel)),
                static_cast<std::ptrdiff_t>(kMax - n));
      for (simd::Tier t : vector_tiers()) {
        ASSERT_EQ(run_on(t, g, n), scalar)
            << simd::tier_name(t) << " n=" << n << " gains " << g.white;
      }
    }
  }
}

TEST(SimdDispatch, GateLevelFastDhTrngIsTierInvariant) {
  // End to end through every noise kernel the simulator refills from: the
  // same stream and the same event count on every tier.
  const auto run_on = [](simd::Tier t) {
    TierScope scope(t);
    dhtrng::core::DhTrng trng({.seed = 1,
                               .backend = dhtrng::core::Backend::GateLevel,
                               .noise_mode = dhtrng::noise::NoiseMode::Fast});
    const auto bits = trng.generate(20000);
    return std::make_pair(
        dhtrng::support::Sha256::hex(
            dhtrng::support::Sha256::hash(bits.to_bytes())),
        trng.simulator()->events_processed());
  };
  const auto scalar = run_on(simd::Tier::Scalar);
  EXPECT_GT(scalar.second, 0u);
  for (simd::Tier t : vector_tiers()) {
    EXPECT_EQ(run_on(t), scalar) << simd::tier_name(t);
  }
}

TEST(SimdDispatch, BoxmullerFillIsChunkInvariant) {
  // The fused stream is position-fixed: normals 2j, 2j+1 come from the
  // j-th word regardless of how the fill is chunked, so any sequence of
  // even-sized fills concatenates to the one-shot fill exactly.
  constexpr std::size_t kN = 1024;
  std::uint64_t whole[4], parts[4];
  dhtrng::support::SplitMix64 seeder(0xc4a2);
  for (int j = 0; j < 4; ++j) whole[j] = parts[j] = seeder.next();
  std::vector<double> one(kN), many(kN);
  simd::boxmuller_fill(whole, one.data(), kN);
  const std::size_t chunks[] = {2, 62, 128, 510, 322};  // sums to 1024
  std::size_t off = 0;
  for (std::size_t c : chunks) {
    simd::boxmuller_fill(parts, many.data() + off, c);
    off += c;
  }
  ASSERT_EQ(off, kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(one[i], many[i]) << "draw " << i;
  }
  for (int j = 0; j < 4; ++j) ASSERT_EQ(whole[j], parts[j]);
}

TEST(SimdDispatch, BoxmullerFillMomentsAreStandardNormal) {
  constexpr std::size_t kN = 1 << 18;
  std::uint64_t s[4];
  dhtrng::support::SplitMix64 seeder(0x90210);
  for (int j = 0; j < 4; ++j) s[j] = seeder.next();
  std::vector<double> z(kN);
  simd::boxmuller_fill(s, z.data(), kN);
  double mean = 0.0, var = 0.0, kurt = 0.0;
  for (double v : z) mean += v;
  mean /= static_cast<double>(kN);
  for (double v : z) {
    const double d = v - mean;
    var += d * d;
    kurt += d * d * d * d;
  }
  var /= static_cast<double>(kN);
  kurt = kurt / static_cast<double>(kN) / (var * var);
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.02);
  EXPECT_NEAR(kurt, 3.0, 0.1);
}

TEST(SimdDispatch, XoshiroSoAGaussianFillNativeMatchesScalar) {
  // 832 is the SoA engine's off-refresh draw count: 6 full 64-lane
  // advances plus a partial 7th, so the deterministic-discard tail path
  // is exercised, not just the aligned path.  126 leaves a partial group
  // of 14 normals, the widest tail the 16-normal AVX-512 group pads.
  for (std::size_t n : {std::size_t{832}, std::size_t{126}}) {
    struct Run {
      std::vector<double> z;
      std::vector<std::uint64_t> raw;  // the raw fill that follows
    };
    const auto fill_on = [n](simd::Tier t) {
      TierScope scope(t);
      simd::XoshiroSoA x;
      for (std::size_t l = 0; l < 64; ++l) x.seed_lane(l, 42 + l);
      Run run{std::vector<double>(n), std::vector<std::uint64_t>(64)};
      x.gaussian_fill(run.z.data(), n);
      x.fill(run.raw.data(), 64);
      return run;
    };
    const Run scalar = fill_on(simd::Tier::Scalar);
    for (simd::Tier t : vector_tiers()) {
      SCOPED_TRACE(simd::tier_name(t));
      const Run native = fill_on(t);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(native.z[i], scalar.z[i]) << "draw " << i << " of " << n;
      }
      // Subsequent raw fills stay in lockstep (same words discarded).
      EXPECT_EQ(native.raw, scalar.raw);
    }
  }
}

TEST(SimdDispatch, UniformLtMaskHiLoNativeMatchesScalarAndSemantics) {
  const auto raw = raw_block(64 * 8, 0x19);
  std::vector<double> p(64);
  dhtrng::support::Xoshiro256 rng(0x20);
  const auto tiers = vector_tiers();
  for (int rep = 0; rep < 8; ++rep) {
    for (auto& v : p) v = rng.uniform();
    const std::uint64_t* w = raw.data() + 64 * rep;
    std::uint64_t hi = 0, lo = 0;
    {
      TierScope s(simd::Tier::Scalar);
      hi = simd::uniform_lt_mask64_hi(w, p.data());
      lo = simd::uniform_lt_mask64_lo(w, p.data());
    }
    for (simd::Tier t : tiers) {
      TierScope s(t);
      ASSERT_EQ(simd::uniform_lt_mask64_hi(w, p.data()), hi)
          << simd::tier_name(t);
      ASSERT_EQ(simd::uniform_lt_mask64_lo(w, p.data()), lo)
          << simd::tier_name(t);
    }
    // Reference semantics: 32-bit halves scaled by 2^-32, strict less-than.
    for (std::size_t l = 0; l < 64; ++l) {
      const double hi_u = static_cast<double>(w[l] >> 32) * 0x1p-32;
      const double lo_u =
          static_cast<double>(w[l] & 0xffffffffu) * 0x1p-32;
      ASSERT_EQ((hi >> l) & 1, hi_u < p[l] ? 1u : 0u);
      ASSERT_EQ((lo >> l) & 1, lo_u < p[l] ? 1u : 0u);
    }
  }
}

TEST(SimdDispatch, TrimmedBatchesNativeMatchScalarBitwise) {
  dhtrng::support::Xoshiro256 rng(0x7213);
  // 2047 is not a multiple of 4 or 8, so every tier's tail path runs.
  for (std::size_t n : {std::size_t{2048}, std::size_t{2047}}) {
    std::vector<double> turns(n);
    for (auto& t : turns) t = rng.uniform(0.0, 2.0);
    const auto sin_on = [&turns, n](simd::Tier t) {
      TierScope scope(t);
      std::vector<double> out(n);
      simd::sin2pi_batch_trimmed(turns.data(), out.data(), n);
      return out;
    };
    const auto scalar = sin_on(simd::Tier::Scalar);
    for (simd::Tier t : vector_tiers()) {
      const auto native = sin_on(t);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(native[i], scalar[i])
            << simd::tier_name(t) << " sin2pi_trimmed element " << i;
      }
    }
  }
}

TEST(SimdDispatch, GatedTrimmedCdfParityAndSemantics) {
  constexpr double kCut = 4.0;
  dhtrng::support::Xoshiro256 rng(0x6a7e);
  // Non-multiples of 8 exercise the tails: 1027 ends in 3 ungated lanes,
  // 1029 in one full (gated) group of 4 plus one lane.
  for (std::size_t n : {std::size_t{1027}, std::size_t{1029}}) {
    std::vector<double> xs(n);
    // Mostly-far population with scattered near lanes, like the engine's
    // aperture distances: all-far groups, mixed groups, and a gated tail.
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = rng.uniform() < 0.2 ? rng.uniform(0.0, kCut)
                                  : rng.uniform(kCut, 40.0);
    }
    const auto cdf_on = [&xs, n](simd::Tier t, double cutoff) {
      TierScope scope(t);
      std::vector<double> out(n);
      simd::normal_cdf_batch_trimmed_gated(xs.data(), out.data(), n, cutoff);
      return out;
    };
    const auto scalar = cdf_on(simd::Tier::Scalar, kCut);
    const auto ungated = cdf_on(simd::Tier::Scalar, HUGE_VAL);
    for (std::size_t i = 0; i < n; ++i) {
      // Per-4-group semantics: 1.0 iff the whole group is at/past the
      // cutoff; otherwise (and for tail lanes) exactly the ungated batch.
      const std::size_t g = i - i % 4;
      bool gated = g + 4 <= n;
      for (std::size_t j = g; gated && j < g + 4; ++j) gated = !(xs[j] < kCut);
      ASSERT_EQ(scalar[i], gated ? 1.0 : ungated[i]) << "element " << i;
    }
    for (simd::Tier t : vector_tiers()) {
      const auto native = cdf_on(t, kCut);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(native[i], scalar[i])
            << simd::tier_name(t) << " mismatch at element " << i;
      }
    }
  }
}

TEST(SimdDispatch, GaussianFillFastNativeMatchesScalar) {
  constexpr std::size_t kN = 1000;  // odd-ish size exercises the tail
  const auto fill_on = [](simd::Tier t) {
    TierScope scope(t);
    dhtrng::support::Xoshiro256 x(0xfa57);
    std::vector<double> out(kN);
    x.gaussian_fill_fast(out.data(), kN);
    return out;
  };
  const auto scalar = fill_on(simd::Tier::Scalar);
  for (simd::Tier t : vector_tiers()) {
    const auto native = fill_on(t);
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(native[i], scalar[i]) << simd::tier_name(t) << " draw " << i;
    }
  }
}
