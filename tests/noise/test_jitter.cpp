#include "noise/jitter.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dhtrng::noise {
namespace {

TEST(SharedSupplyNoise, StationarySigma) {
  SharedSupplyNoise noise(2.0, 5);
  double sum2 = 0.0;
  const int n = 200000;
  // Burn in past the AR(1) transient first.
  for (int i = 0; i < 2000; ++i) noise.step();
  for (int i = 0; i < n; ++i) {
    const double v = noise.step();
    sum2 += v * v;
  }
  EXPECT_NEAR(std::sqrt(sum2 / n), 2.0, 0.4);
}

TEST(SharedSupplyNoise, IsStronglyCorrelated) {
  SharedSupplyNoise noise(1.0, 7, 0.995);
  for (int i = 0; i < 1000; ++i) noise.step();
  const double a = noise.step();
  const double b = noise.step();
  // Successive values move by at most ~ sqrt(1-rho^2)*sigma*few.
  EXPECT_LT(std::abs(a - b), 1.0);
}

TEST(SharedSupplyNoise, CurrentReflectsLastStep) {
  SharedSupplyNoise noise(1.0, 9);
  const double v = noise.step();
  EXPECT_DOUBLE_EQ(noise.current(), v);
}

TEST(EdgeJitterSource, Deterministic) {
  const JitterParams p{1.0, 0.5, 0.0};
  EdgeJitterSource a(p, 42), b(p, 42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.next_edge_jitter(), b.next_edge_jitter());
  }
}

TEST(EdgeJitterSource, WhiteSigmaScalesOutput) {
  const int n = 100000;
  const auto measure = [&](double white_sigma, double scale_white) {
    EdgeJitterSource src({white_sigma, 0.0001, 0.0}, 11);
    PvtScaling scale{1.0, scale_white, 1.0};
    double sum2 = 0.0;
    for (int i = 0; i < n; ++i) {
      const double j = src.next_edge_jitter(scale);
      sum2 += j * j;
    }
    return std::sqrt(sum2 / n);
  };
  EXPECT_NEAR(measure(2.0, 1.0) / measure(1.0, 1.0), 2.0, 0.1);
  EXPECT_NEAR(measure(1.0, 3.0) / measure(1.0, 1.0), 3.0, 0.1);
}

TEST(EdgeJitterSource, SharedNoiseIsCommonMode) {
  SharedSupplyNoise shared(5.0, 3);
  EdgeJitterSource a({0.001, 0.001, 1.0}, 1, &shared);
  EdgeJitterSource b({0.001, 0.001, 1.0}, 2, &shared);
  // With negligible white/flicker noise, both sources track the shared
  // component; but each call steps the shared process, so consecutive
  // calls see nearby (not identical) values.
  double corr_num = 0.0, va = 0.0, vb = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double ja = a.next_edge_jitter();
    const double jb = b.next_edge_jitter();
    corr_num += ja * jb;
    va += ja * ja;
    vb += jb * jb;
  }
  EXPECT_GT(corr_num / std::sqrt(va * vb), 0.9);
}

TEST(EdgeJitterSource, ParamsAccessor) {
  const JitterParams p{1.5, 0.25, 0.1};
  EdgeJitterSource src(p, 1);
  EXPECT_DOUBLE_EQ(src.params().white_sigma_ps, 1.5);
  EXPECT_DOUBLE_EQ(src.params().flicker_sigma_ps, 0.25);
}

// ---------------------------------------------------------------------------
// Block draws must be bit-identical to one draw per call: the golden
// waveform digests would catch a drift, but these tests localize it.  The
// per-call streams are written out here as references.

/// One AR(1) step per call: x' = rho x + sqrt(1 - rho^2) sigma w.
class PerCallSupply {
 public:
  PerCallSupply(double sigma_ps, std::uint64_t seed, double rho = 0.995)
      : rho_(rho), innovation_(std::sqrt(1.0 - rho * rho) * sigma_ps),
        rng_(seed) {}
  double step() {
    value_ = rho_ * value_ + rng_.gaussian(0.0, innovation_);
    return value_;
  }

 private:
  double rho_;
  double innovation_;
  double value_ = 0.0;
  support::Xoshiro256 rng_;
};

/// One white gaussian() and one FlickerNoise::next() per call, seeded and
/// combined as EdgeJitterSource does.
class PerCallJitter {
 public:
  PerCallJitter(const JitterParams& p, std::uint64_t seed,
                PerCallSupply* shared = nullptr)
      : p_(p), rng_(seed),
        flicker_(p.flicker_sigma_ps / std::sqrt(12.0), 12,
                 seed ^ 0x9e3779b97f4a7c15ULL),
        shared_(shared) {}
  double next(const PvtScaling& scale = {1.0, 1.0, 1.0}) {
    const double white = rng_.gaussian();
    const double flicker = flicker_.next();
    double jitter = 0.0 + p_.white_sigma_ps * scale.white_jitter * white;
    jitter += flicker * scale.correlated_noise;
    if (shared_ != nullptr) {
      jitter += shared_->step() * scale.correlated_noise *
                (p_.correlated_sigma_ps > 0.0 ? 1.0 : 0.0);
    }
    return jitter;
  }

 private:
  JitterParams p_;
  support::Xoshiro256 rng_;
  FlickerNoise flicker_;
  PerCallSupply* shared_;
};

TEST(EdgeJitterSource, BatchedStreamIsBitIdentical) {
  // 2500 draws cross several kNoiseBlock refills.
  const JitterParams p{1.2, 0.5, 0.0};
  PerCallJitter per_call(p, 77);
  EdgeJitterSource batched(p, 77);
  const PvtScaling scale{1.1, 0.9, 1.3};
  for (int i = 0; i < 2500; ++i) {
    ASSERT_EQ(per_call.next(scale), batched.next_edge_jitter(scale))
        << "draw " << i;
  }
}

TEST(EdgeJitterSource, BatchedStreamWithSharedSupplyIsBitIdentical) {
  const JitterParams p{1.2, 0.5, 0.4};
  PerCallSupply shared_a(p.correlated_sigma_ps, 5);
  SharedSupplyNoise shared_b(p.correlated_sigma_ps, 5);
  PerCallJitter a(p, 77, &shared_a);
  EdgeJitterSource b(p, 77, &shared_b);
  for (int i = 0; i < 2500; ++i) {
    ASSERT_EQ(a.next(), b.next_edge_jitter()) << "draw " << i;
  }
}

TEST(EdgeJitterSource, PvtScaleChangeMidBlockAppliesImmediately) {
  // Blocks buffer *raw* components; scaling happens at consumption, so a
  // corner change between two draws of the same block must take effect on
  // the very next draw.
  const JitterParams p{1.0, 0.5, 0.0};
  PerCallJitter per_call(p, 31);
  EdgeJitterSource batched(p, 31);
  const PvtScaling nominal{1.0, 1.0, 1.0};
  const PvtScaling corner{1.4, 2.0, 1.7};
  for (int i = 0; i < 300; ++i) {
    const PvtScaling& s = i % 7 < 3 ? nominal : corner;
    ASSERT_EQ(per_call.next(s), batched.next_edge_jitter(s)) << "draw " << i;
  }
}

TEST(SharedSupplyNoise, BatchedTrajectoryIsBitIdentical) {
  PerCallSupply per_call(2.0, 123);
  SharedSupplyNoise batched(2.0, 123);
  for (int i = 0; i < 2000; ++i) {
    const double v = batched.step();
    ASSERT_EQ(per_call.step(), v) << "step " << i;
    ASSERT_EQ(batched.current(), v);
  }
}

}  // namespace
}  // namespace dhtrng::noise
