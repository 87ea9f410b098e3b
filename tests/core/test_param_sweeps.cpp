// Parameterized property sweeps over the core models (TEST_P /
// INSTANTIATE_TEST_SUITE_P): ring orders, devices, backends, XOR folds.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/dhtrng.h"
#include "core/postprocess.h"
#include "core/ro.h"
#include "stats/correlation.h"
#include "support/rng.h"

namespace dhtrng::core {
namespace {

// --- ring order sweep -------------------------------------------------------

class RingOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(RingOrderSweep, PeriodScalesLinearly) {
  const int stages = GetParam();
  PhaseRoParams p;
  p.stages = stages;
  p.stage_delay_ps = 250.0;
  p.period_tolerance = 0.0;
  PhaseRo ro(p, 11);
  EXPECT_NEAR(ro.period_ps({1.0, 1.0, 1.0}), 2.0 * 250.0 * stages, 1e-9);
}

TEST_P(RingOrderSweep, GateLevelBuildMatchesOrder) {
  if (GetParam() % 2 == 0) GTEST_SKIP() << "even rings are not inverting";
  sim::Circuit c;
  const sim::NetId en = c.add_net("en");
  build_ring_oscillator(c, "ro", GetParam(), en, 120.0);
  EXPECT_EQ(c.resources().luts, static_cast<std::size_t>(GetParam()));
}

TEST_P(RingOrderSweep, DutyStaysCentered) {
  PhaseRoParams p;
  p.stages = GetParam();
  double worst = 0.0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    PhaseRo ro(p, 100 + seed);
    worst = std::max(worst, std::abs(ro.duty() - 0.5));
  }
  EXPECT_LT(worst, 0.15);
}

INSTANTIATE_TEST_SUITE_P(Orders, RingOrderSweep,
                         ::testing::Values(2, 3, 5, 7, 9, 11, 13));

// --- device x backend sweep --------------------------------------------------

using DeviceBackend = std::tuple<int, Backend>;  // 0 = artix7, 1 = virtex6

class DhTrngMatrix : public ::testing::TestWithParam<DeviceBackend> {
 protected:
  DhTrngConfig config() const {
    DhTrngConfig cfg;
    cfg.device = std::get<0>(GetParam()) == 0 ? fpga::DeviceModel::artix7()
                                              : fpga::DeviceModel::virtex6();
    cfg.backend = std::get<1>(GetParam());
    cfg.seed = 77;
    return cfg;
  }
  std::size_t sample_bits() const {
    return std::get<1>(GetParam()) == Backend::Fast ? 50000u : 5000u;
  }
};

TEST_P(DhTrngMatrix, BalancedOutput) {
  DhTrng trng(config());
  EXPECT_LT(stats::bias_percent(trng.generate(sample_bits())), 3.0);
}

TEST_P(DhTrngMatrix, ResourceInventoryInvariant) {
  DhTrng trng(config());
  const auto rc = trng.resources();
  EXPECT_EQ(rc.luts, 23u);
  EXPECT_EQ(rc.muxes, 4u);
  EXPECT_EQ(rc.dffs, 14u);
}

TEST_P(DhTrngMatrix, RestartDiverges) {
  DhTrng trng(config());
  const auto a = trng.generate(512);
  trng.restart();
  EXPECT_NE(a, trng.generate(512));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DhTrngMatrix,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(Backend::Fast, Backend::GateLevel)),
    [](const ::testing::TestParamInfo<DeviceBackend>& param_info) {
      return std::string(std::get<0>(param_info.param) == 0 ? "Artix7"
                                                            : "Virtex6") +
             (std::get<1>(param_info.param) == Backend::Fast ? "Fast" : "Gate");
    });

// --- XOR fold sweep ----------------------------------------------------------

class XorFoldSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(XorFoldSweep, BiasFollowsPilingUpLemma) {
  const std::size_t fold = GetParam();
  constexpr double kP = 0.65;
  support::Xoshiro256 rng(fold * 31 + 5);
  support::BitStream raw;
  for (int i = 0; i < 2000000; ++i) raw.push_back(rng.bernoulli(kP));
  const auto out = xor_compress(raw, fold);
  // E[out] = 1/2 (1 - (1-2p)^fold); bias% = |2E-1|*100 = |1-2p|^fold * 100.
  const double expected = std::pow(std::abs(1.0 - 2.0 * kP), fold) * 100.0;
  EXPECT_NEAR(stats::bias_percent(out), expected,
              std::max(0.35, expected * 0.15))
      << "fold=" << fold;
}

INSTANTIATE_TEST_SUITE_P(Folds, XorFoldSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u));

// --- PVT grid sweep ----------------------------------------------------------

using Corner = std::tuple<double, double>;  // (temperature, voltage)

class PvtGrid : public ::testing::TestWithParam<Corner> {};

TEST_P(PvtGrid, ClockAndBalanceHold) {
  const auto [t, v] = GetParam();
  DhTrng trng({.device = fpga::DeviceModel::artix7(),
               .pvt = {t, v},
               .seed = 5});
  // The sampling clock must stay in a sane band across the envelope...
  EXPECT_GT(trng.clock_mhz(), 250.0);
  EXPECT_LE(trng.clock_mhz(), 800.0);
  // ...and the output must stay balanced.
  EXPECT_LT(stats::bias_percent(trng.generate(40000)), 3.0);
}

INSTANTIATE_TEST_SUITE_P(
    Corners, PvtGrid,
    ::testing::Combine(::testing::Values(-20.0, 20.0, 80.0),
                       ::testing::Values(0.8, 1.0, 1.2)),
    [](const ::testing::TestParamInfo<Corner>& param_info) {
      // No structured bindings here: a comma inside [] would split the
      // INSTANTIATE macro's arguments.
      return std::string("T")
          .append(std::to_string(
              static_cast<int>(std::get<0>(param_info.param) + 100)))
          .append("V")
          .append(std::to_string(
              static_cast<int>(std::get<1>(param_info.param) * 10)));
    });

}  // namespace
}  // namespace dhtrng::core
