#include "core/dhtrng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "stats/correlation.h"
#include "support/rng.h"

namespace dhtrng::core {
namespace {

TEST(DhTrng, DefaultClockIsDeviceMax) {
  DhTrng a7{{.device = fpga::DeviceModel::artix7()}};
  EXPECT_NEAR(a7.clock_mhz(), 620.0, 10.0);
  DhTrng v6{{.device = fpga::DeviceModel::virtex6()}};
  EXPECT_NEAR(v6.clock_mhz(), 670.0, 10.0);
  EXPECT_DOUBLE_EQ(a7.throughput_mbps(), a7.clock_mhz());
}

TEST(DhTrng, ExplicitClockHonored) {
  DhTrng t{{.clock_mhz = 100.0}};
  EXPECT_DOUBLE_EQ(t.clock_mhz(), 100.0);
}

TEST(DhTrng, DeterministicForSeed) {
  DhTrng a{{.seed = 123}};
  DhTrng b{{.seed = 123}};
  EXPECT_EQ(a.generate(5000), b.generate(5000));
}

TEST(DhTrng, DifferentSeedsDiffer) {
  DhTrng a{{.seed = 1}};
  DhTrng b{{.seed = 2}};
  EXPECT_NE(a.generate(5000), b.generate(5000));
}

TEST(DhTrng, OutputIsBalanced) {
  DhTrng t{{.seed = 9}};
  const auto bits = t.generate(100000);
  EXPECT_LT(stats::bias_percent(bits), 1.0);
}

TEST(DhTrng, LowAutocorrelation) {
  DhTrng t{{.seed = 10}};
  const auto bits = t.generate(100000);
  for (double acf : stats::autocorrelation(bits, 10)) {
    EXPECT_LT(std::abs(acf), 0.02);
  }
}

TEST(DhTrng, ResourcesMatchPaper) {
  DhTrng t{{}};
  const sim::ResourceCounts rc = t.resources();
  EXPECT_EQ(rc.luts, 23u);
  EXPECT_EQ(rc.muxes, 4u);
  EXPECT_EQ(rc.dffs, 14u);
  EXPECT_EQ(t.slice_report().slice_count(), 8u);
}

TEST(DhTrng, NameReflectsAblations) {
  EXPECT_EQ(DhTrng{{}}.name(), "DH-TRNG");
  EXPECT_EQ((DhTrng{{.coupling = false}}).name(), "DH-TRNG/no-coupling");
  EXPECT_EQ((DhTrng{{.feedback = false}}).name(), "DH-TRNG/no-feedback");
}

TEST(DhTrng, RestartKeepsBalanceAndChangesOutput) {
  DhTrng t{{.seed = 11}};
  const auto first = t.generate(2000);
  t.restart();
  const auto second = t.generate(2000);
  EXPECT_NE(first, second);  // noise does not replay
  EXPECT_LT(stats::bias_percent(second), 3.0);
}

TEST(DhTrng, MetastableFractionIsSubstantial) {
  // The hybrid units are designed to spend much of their time harvesting
  // metastability (Section 3.1).
  DhTrng t{{.seed = 12}};
  t.generate(20000);
  EXPECT_GT(t.metastable_fraction(), 0.3);
}

TEST(DhTrng, ActivityEstimateIsPlausible) {
  DhTrng t{{}};
  const fpga::ActivityEstimate a = t.activity();
  EXPECT_EQ(a.flip_flops, 14u);
  EXPECT_GT(a.logic_toggle_ghz, 5.0);
  EXPECT_LT(a.logic_toggle_ghz, 200.0);
}

TEST(DhTrng, GenerateAppends) {
  DhTrng t{{.seed = 13}};
  support::BitStream bs;
  t.generate(bs, 100);
  t.generate(bs, 50);
  EXPECT_EQ(bs.size(), 150u);
}

TEST(DhTrng, PvtCornerStillBalanced) {
  DhTrng t{{.pvt = {80.0, 0.8}, .seed = 14}};
  const auto bits = t.generate(50000);
  EXPECT_LT(stats::bias_percent(bits), 2.0);
}

TEST(DhTrng, AblationsStayBalanced) {
  for (auto [coupling, feedback] :
       {std::pair{false, true}, {true, false}, {false, false}}) {
    DhTrng t{{.seed = 15, .coupling = coupling, .feedback = feedback}};
    const auto bits = t.generate(50000);
    EXPECT_LT(stats::bias_percent(bits), 3.0)
        << "coupling=" << coupling << " feedback=" << feedback;
  }
}

// The restart policy every gate-level model shares: restart r re-seeds the
// simulator with SplitMix64(seed + r).next() over the unchanged circuit.
TEST(GateSampler, RestartRSamplesLikeAFreshSimulatorSeededFromSeedPlusR) {
  const fpga::DeviceModel device = fpga::DeviceModel::artix7();
  const noise::PvtScaling scale = device.scaling({});
  const double dt_ps = 1e6 / 600.0;
  const std::uint64_t seed = 42;
  DhTrngNetlist built = build_dhtrng_netlist(device, 600.0);
  GateSampler sampler(std::move(built.circuit), built.out_dff, dt_ps, device,
                      scale, noise::NoiseMode::Exact, seed);
  for (std::uint64_t r = 0; r <= 3; ++r) {
    if (r > 0) sampler.restart();
    const DhTrngNetlist n = build_dhtrng_netlist(device, 600.0);
    sim::SimConfig cfg;
    cfg.seed = r == 0 ? seed : support::SplitMix64(seed + r).next();
    cfg.gate_jitter = device.gate_jitter;
    cfg.scaling = scale;
    sim::Simulator reference(n.circuit, cfg);
    reference.record_dff(n.out_dff);
    for (int i = 0; i < 128; ++i) {
      ASSERT_EQ(sampler.next_bit(), reference.next_sample(n.out_dff, dt_ps))
          << "restart " << r << ", bit " << i;
    }
  }
}

}  // namespace
}  // namespace dhtrng::core
