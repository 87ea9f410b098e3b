#include "support/noise_models.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dhtrng::noise {
namespace {

PhaseNoiseParams nominal() {
  PhaseNoiseParams p;
  p.stages = 3;
  p.frequency_hz = 1e9;
  p.power_w = 1e-4;
  return p;
}

TEST(PhaseNoise, Eq1LinearInStages) {
  // Paper Eq. 1: L is proportional to the ring order N.
  auto p3 = nominal();
  auto p9 = nominal();
  p9.stages = 9;
  EXPECT_NEAR(phase_noise_ssb(p9, 1e6) / phase_noise_ssb(p3, 1e6), 3.0,
              1e-9);
}

TEST(PhaseNoise, Eq1InverseInPower) {
  auto lo = nominal();
  auto hi = nominal();
  hi.power_w = 2e-4;
  EXPECT_NEAR(phase_noise_ssb(lo, 1e6) / phase_noise_ssb(hi, 1e6), 2.0,
              1e-9);
}

TEST(PhaseNoise, Eq1QuadraticInOffset) {
  const auto p = nominal();
  EXPECT_NEAR(phase_noise_ssb(p, 1e6) / phase_noise_ssb(p, 2e6), 4.0, 1e-9);
}

TEST(PhaseNoise, DbcConversion) {
  const auto p = nominal();
  const double lin = phase_noise_ssb(p, 1e6);
  EXPECT_NEAR(phase_noise_dbc(p, 1e6), 10.0 * std::log10(lin), 1e-12);
}

TEST(PhaseNoise, KappaIndependentOfEvaluationOffset) {
  // kappa = sqrt(L(df)) * df / f0 must not depend on df for the white
  // model; jitter_kappa uses one offset internally, check consistency.
  const auto p = nominal();
  const double kappa = jitter_kappa(p);
  for (double df : {1e5, 1e6, 1e7}) {
    const double k = std::sqrt(phase_noise_ssb(p, df)) * df / p.frequency_hz;
    EXPECT_NEAR(k, kappa, kappa * 1e-9);
  }
}

TEST(PhaseNoise, AccumulatedJitterGrowsAsSqrtTime) {
  const auto p = nominal();
  const double s1 = accumulated_jitter_sigma_ps(p, 1e-8);
  const double s4 = accumulated_jitter_sigma_ps(p, 4e-8);
  EXPECT_NEAR(s4 / s1, 2.0, 1e-9);
}

TEST(PhaseNoise, EdgeSigmaIsPositiveAndSmall) {
  const auto p = nominal();
  const double edge = edge_jitter_sigma_ps(p);
  EXPECT_GT(edge, 0.0);
  EXPECT_LT(edge, 10.0);  // sub-10ps per edge for a healthy ring
}

TEST(PhaseNoise, HotterRingsAreNoisier) {
  auto cold = nominal();
  auto hot = nominal();
  cold.temperature_k = 253.15;
  hot.temperature_k = 353.15;
  EXPECT_GT(jitter_kappa(hot), jitter_kappa(cold));
}

}  // namespace
}  // namespace dhtrng::noise
