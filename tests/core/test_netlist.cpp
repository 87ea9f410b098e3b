#include "core/netlist.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fpga/device.h"
#include "sim/simulator.h"

namespace dhtrng::core {
namespace {

TEST(Netlist, PaperResourceInventory) {
  // Section 3.3: 23 LUTs, 4 MUXs, 14 DFFs.
  const DhTrngNetlist n =
      build_dhtrng_netlist(fpga::DeviceModel::artix7(), 620.0);
  const sim::ResourceCounts rc = n.circuit.resources();
  EXPECT_EQ(rc.luts, 23u);
  EXPECT_EQ(rc.muxes, 4u);
  EXPECT_EQ(rc.dffs, 14u);
}

TEST(Netlist, InventoryHoldsWithoutStrategies) {
  // The ablation variants keep the same footprint (the strategies change
  // wiring, not the cell count).
  for (bool coupling : {true, false}) {
    for (bool feedback : {true, false}) {
      const DhTrngNetlist n = build_dhtrng_netlist(
          fpga::DeviceModel::artix7(), 620.0, coupling, feedback);
      const sim::ResourceCounts rc = n.circuit.resources();
      EXPECT_EQ(rc.luts, 23u);
      EXPECT_EQ(rc.muxes, 4u);
      EXPECT_EQ(rc.dffs, 14u);
    }
  }
}

TEST(Netlist, ValidatesSingleDriver) {
  const DhTrngNetlist n =
      build_dhtrng_netlist(fpga::DeviceModel::virtex6(), 670.0);
  EXPECT_NO_THROW(n.circuit.validate());
}

TEST(Netlist, TwelveSamplingDffs) {
  const DhTrngNetlist n =
      build_dhtrng_netlist(fpga::DeviceModel::artix7(), 620.0);
  EXPECT_EQ(n.sample_dffs.size(), 12u);
  EXPECT_NE(n.out_dff, n.feedback_dff);
}

TEST(Netlist, PackGroupsMatchPaperSplit) {
  // Entropy source: 20 LUTs + 4 MUXs split across two structures;
  // sampling array: 3 LUTs + 14 DFFs.
  const DhTrngNetlist n =
      build_dhtrng_netlist(fpga::DeviceModel::artix7(), 620.0);
  ASSERT_EQ(n.pack_groups.size(), 3u);
  std::size_t luts = 0, muxes = 0, dffs = 0;
  for (const auto& g : n.pack_groups) {
    luts += g.luts;
    muxes += g.muxes;
    dffs += g.dffs;
  }
  EXPECT_EQ(luts, 23u);
  EXPECT_EQ(muxes, 4u);
  EXPECT_EQ(dffs, 14u);
}

TEST(Netlist, ClockPeriodMatchesRequest) {
  const DhTrngNetlist n =
      build_dhtrng_netlist(fpga::DeviceModel::artix7(), 500.0);
  ASSERT_EQ(n.circuit.clocks().size(), 1u);
  EXPECT_NEAR(n.circuit.clocks()[0].period_ps, 2000.0, 1e-9);
}

TEST(Netlist, EnableNetInitializedHigh) {
  const DhTrngNetlist n =
      build_dhtrng_netlist(fpga::DeviceModel::artix7(), 620.0);
  EXPECT_TRUE(n.circuit.initial_values()[n.enable_net]);
}

TEST(XorRoNetlist, ResourceCountsScale) {
  const XorRoNetlist n =
      build_xor_ro_netlist(fpga::DeviceModel::artix7(), 5, 12, 100.0);
  const sim::ResourceCounts rc = n.circuit.resources();
  // 12 rings x 5 elements + XOR tree (12 -> 2 -> 1 = 3 LUTs).
  EXPECT_EQ(rc.luts, 12u * 5u + 3u);
  EXPECT_EQ(rc.dffs, 13u);  // 12 samplers + output
  EXPECT_EQ(n.sampler_dffs.size(), 12u);
  EXPECT_NO_THROW(n.circuit.validate());
}

TEST(XorRoNetlist, SimulatesAndProducesBalancedBits) {
  const XorRoNetlist n =
      build_xor_ro_netlist(fpga::DeviceModel::artix7(), 3, 4, 100.0);
  sim::SimConfig cfg;
  cfg.seed = 7;
  sim::Simulator simulator(n.circuit, cfg);
  simulator.record_dff(n.out_dff);
  simulator.run_until(3e6);  // 3 us at 100 MHz -> ~300 samples
  const auto& samples = simulator.samples(n.out_dff);
  ASSERT_GT(samples.size(), 250u);
  std::size_t ones = 0;
  for (std::uint8_t s : samples) ones += s;
  const double density =
      static_cast<double>(ones) / static_cast<double>(samples.size());
  EXPECT_GT(density, 0.2);
  EXPECT_LT(density, 0.8);
}

TEST(XorRoNetlist, SingleRingDegenerateTree) {
  const XorRoNetlist n =
      build_xor_ro_netlist(fpga::DeviceModel::artix7(), 3, 1, 100.0);
  EXPECT_EQ(n.circuit.resources().luts, 3u);  // ring only, no XOR needed
  EXPECT_NO_THROW(n.circuit.validate());
}

TEST(XorLut6Tree, LutCountMatchesTheBuiltTree) {
  for (std::size_t n = 1; n <= 40; ++n) {
    sim::Circuit c;
    std::vector<sim::NetId> inputs;
    for (std::size_t i = 0; i < n; ++i) {
      inputs.push_back(c.add_net("in" + std::to_string(i)));
    }
    const sim::NetId root = build_xor_lut6_tree(c, inputs, 100.0);
    EXPECT_EQ(c.resources().luts, xor_lut6_tree_luts(n)) << n << " inputs";
    if (n == 1) {
      EXPECT_EQ(root, inputs.front());
    }
  }
}

}  // namespace
}  // namespace dhtrng::core
