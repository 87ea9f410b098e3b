#include "core/ro.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dhtrng::core {
namespace {

const noise::PvtScaling kNominal{1.0, 1.0, 1.0};

PhaseRoParams quiet_params(int stages = 3) {
  PhaseRoParams p;
  p.stages = stages;
  p.stage_delay_ps = 100.0;
  p.kappa_ps_per_sqrt_ps = 1e-6;
  p.flicker_sigma_ps = 1e-6;
  p.duty_sigma = 0.0;
  p.period_tolerance = 0.0;
  return p;
}

TEST(PhaseRo, RejectsTooFewStages) {
  EXPECT_THROW(PhaseRo(quiet_params(1), 1), std::invalid_argument);
}

TEST(PhaseRo, NominalPeriod) {
  PhaseRo ro(quiet_params(5), 1);
  EXPECT_NEAR(ro.period_ps(kNominal), 1000.0, 1e-9);
  EXPECT_NEAR(ro.period_ps({2.0, 1.0, 1.0}), 2000.0, 1e-9);
}

TEST(PhaseRo, NoiselessRotationIsExact) {
  PhaseRo ro(quiet_params(5), 1);  // period 1000 ps
  const double start = ro.phase();
  ro.advance(250.0, 0.0, kNominal);
  double expected = start + 0.25;
  expected -= std::floor(expected);
  EXPECT_NEAR(ro.phase(), expected, 1e-3);
}

TEST(PhaseRo, FullPeriodReturnsToStart) {
  PhaseRo ro(quiet_params(5), 2);
  const double start = ro.phase();
  ro.advance(1000.0, 0.0, kNominal);
  EXPECT_NEAR(ro.phase(), start, 1e-3);
}

TEST(PhaseRo, LevelFollowsDuty) {
  PhaseRo ro(quiet_params(3), 3);
  EXPECT_NEAR(ro.duty(), 0.5, 1e-9);  // duty_sigma = 0
  // Walk a full period in small steps and count high time.
  int high = 0;
  const int steps = 1000;
  for (int i = 0; i < steps; ++i) {
    ro.advance(600.0 / steps, 0.0, kNominal);
    high += ro.level() ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(high) / steps, 0.5, 0.01);
}

TEST(PhaseRo, WhiteJitterSpreadsPhase) {
  PhaseRoParams p = quiet_params(3);
  p.kappa_ps_per_sqrt_ps = 0.5;
  double spread = 0.0;
  PhaseRo a(p, 10), b(p, 20);
  // Same deterministic increments, different noise draws.
  for (int i = 0; i < 100; ++i) {
    a.advance(600.0, 0.0, kNominal);
    b.advance(600.0, 0.0, kNominal);
  }
  spread = std::abs(a.phase() - b.phase());
  EXPECT_GT(spread, 1e-4);
}

TEST(PhaseRo, DutyErrorShrinksWithStages) {
  // sigma_duty ~ duty_sigma / sqrt(N): estimate over many instances.
  const auto spread = [](int stages) {
    double sum2 = 0.0;
    for (std::uint64_t s = 0; s < 400; ++s) {
      PhaseRoParams p;
      p.stages = stages;
      p.duty_sigma = 0.1;
      PhaseRo ro(p, 1000 + s);
      sum2 += (ro.duty() - 0.5) * (ro.duty() - 0.5);
    }
    return std::sqrt(sum2 / 400.0);
  };
  EXPECT_GT(spread(2), 1.6 * spread(9));
}

TEST(PhaseRo, SharedCouplingDerivedFromStages) {
  PhaseRo short_ring(quiet_params(2), 1);
  PhaseRo long_ring(quiet_params(12), 1);
  EXPECT_GT(short_ring.shared_coupling(), 4.0 * long_ring.shared_coupling());
}

TEST(PhaseRo, ExplicitCouplingOverrides) {
  PhaseRoParams p = quiet_params(2);
  p.shared_coupling = 0.123;
  EXPECT_DOUBLE_EQ(PhaseRo(p, 1).shared_coupling(), 0.123);
}

TEST(PhaseRo, ResetRestoresInitialPhaseOnly) {
  PhaseRoParams p = quiet_params(3);
  p.kappa_ps_per_sqrt_ps = 0.2;
  PhaseRo ro(p, 5);
  const double initial = ro.phase();
  ro.advance(123.0, 0.0, kNominal);
  EXPECT_NE(ro.phase(), initial);
  ro.reset();
  EXPECT_DOUBLE_EQ(ro.phase(), initial);
}

TEST(PhaseRo, InjectPhaseWraps) {
  PhaseRo ro(quiet_params(3), 6);
  ro.inject_phase(2.3);
  EXPECT_GE(ro.phase(), 0.0);
  EXPECT_LT(ro.phase(), 1.0);
}

TEST(PhaseRo, EdgeDistanceIsBoundedByQuarterPeriod) {
  PhaseRo ro(quiet_params(3), 7);
  for (int i = 0; i < 50; ++i) {
    ro.advance(37.0, 0.0, kNominal);
    EXPECT_LE(ro.edge_distance_ps(kNominal), ro.period_ps(kNominal) / 2.0);
    EXPECT_GE(ro.edge_distance_ps(kNominal), 0.0);
  }
}

TEST(BuildRingOscillator, CountsGatesAndValidates) {
  sim::Circuit c;
  const sim::NetId en = c.add_net("en");
  build_ring_oscillator(c, "ro", 5, en, 100.0);
  EXPECT_EQ(c.resources().luts, 5u);
  EXPECT_NO_THROW(c.validate());
}

TEST(BuildRingOscillator, RejectsEvenAndShortRings) {
  sim::Circuit c;
  const sim::NetId en = c.add_net("en");
  EXPECT_THROW(build_ring_oscillator(c, "a", 4, en, 100.0),
               std::invalid_argument);
  EXPECT_THROW(build_ring_oscillator(c, "b", 1, en, 100.0),
               std::invalid_argument);
}

TEST(ApertureSample, BeyondFourSigmaKeepsLevelWithoutDrawing) {
  support::Xoshiro256 rng(5);
  support::Xoshiro256 twin(5);
  for (bool level : {false, true}) {
    EXPECT_EQ(aperture_sample(level, 4.0 * 12.0, 12.0, rng), level);
    EXPECT_EQ(aperture_sample(level, 1e6, 12.0, rng), level);
  }
  EXPECT_EQ(rng(), twin());
}

TEST(ApertureSample, OnTheEdgeFlipsHalfTheSamples) {
  support::Xoshiro256 rng(9);
  const int n = 100000;
  int flips = 0;
  for (int i = 0; i < n; ++i) {
    if (!aperture_sample(true, 0.0, 12.0, rng)) ++flips;
  }
  EXPECT_NEAR(static_cast<double>(flips) / n, 0.5, 0.01);
}

}  // namespace
}  // namespace dhtrng::core
