// Unit battery for the entropy-source zoo (core/zoo/): exact KATs for the
// neoTRNG von Neumann extractor and LFSR byte combiner, per-architecture
// behavioral sanity (bias, restart, resources, activity), netlist-vs-
// behavioral resource-inventory consistency, the registry contract, and
// the determinism of the Table-6-style compare report.  The heavyweight
// gate-level / golden-digest battery lives in test_zoo_differential.cpp
// (labels: slow differential).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/zoo/compare.h"
#include "core/zoo/zoo.h"
#include "fpga/device.h"
#include "stats/correlation.h"
#include "support/bitstream.h"
#include "support/rng.h"

namespace dhtrng::core {
namespace {

// ---------------------------------------------------------------------------
// von Neumann extractor KATs

TEST(NeoVonNeumann, RemovesBiasFromPinnedBiasedStream) {
  // Pinned Bernoulli(0.8) stream: 4096 bits from Xoshiro256(99).  The
  // acceptance rate of a VN extractor on i.i.d. Bernoulli(p) input is
  // 2p(1-p) = 0.32 at p = 0.8; the output must be unbiased.
  support::Xoshiro256 rng(99);
  support::BitStream biased;
  for (int i = 0; i < 4096; ++i) biased.push_back(rng.bernoulli(0.8));

  VonNeumannStats st;
  const support::BitStream out = neo_von_neumann(biased, &st);
  EXPECT_EQ(st.pairs, 2048u);
  // Exact counts for this pinned stream (regression-pins the pairing).
  EXPECT_EQ(st.accepted, 655u);
  EXPECT_EQ(out.size(), st.accepted);
  EXPECT_NEAR(st.rate(), 2.0 * 0.8 * 0.2, 0.03);
  // Input bias ~30 percentage points; output must be close to fair.
  EXPECT_GT(stats::bias_percent(biased), 25.0);
  EXPECT_LT(stats::bias_percent(out), 5.0);
}

TEST(NeoVonNeumann, EdgeCases) {
  const auto constant = [](bool v, std::size_t n) {
    support::BitStream s;
    for (std::size_t i = 0; i < n; ++i) s.push_back(v);
    return s;
  };
  VonNeumannStats st;

  // All-zero and all-one inputs: every pair concordant, nothing emitted.
  EXPECT_EQ(neo_von_neumann(constant(false, 1000), &st).size(), 0u);
  EXPECT_EQ(st.pairs, 500u);
  EXPECT_EQ(st.accepted, 0u);
  EXPECT_EQ(neo_von_neumann(constant(true, 1000), &st).size(), 0u);
  EXPECT_EQ(st.accepted, 0u);

  // Alternating 0101...: every pair is (0,1), all accepted, and the
  // "edge" convention emits the second bit -> all ones.  (A periodic
  // input defeats any memoryless extractor; the KAT just pins the
  // convention.)
  support::BitStream alt;
  for (int i = 0; i < 100; ++i) alt.push_back(i % 2 != 0);
  const support::BitStream out = neo_von_neumann(alt, &st);
  EXPECT_EQ(st.pairs, 50u);
  EXPECT_EQ(st.accepted, 50u);
  ASSERT_EQ(out.size(), 50u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_TRUE(out[i]);

  // 1010...: every pair (1,0) -> all zeros.
  support::BitStream alt2;
  for (int i = 0; i < 100; ++i) alt2.push_back(i % 2 == 0);
  const support::BitStream out2 = neo_von_neumann(alt2, &st);
  ASSERT_EQ(out2.size(), 50u);
  for (std::size_t i = 0; i < out2.size(); ++i) EXPECT_FALSE(out2[i]);

  // Empty and odd-length inputs: the trailing unpaired bit is ignored.
  EXPECT_EQ(neo_von_neumann({}, &st).size(), 0u);
  EXPECT_EQ(st.pairs, 0u);
  support::BitStream odd;
  odd.push_back(false);
  odd.push_back(true);
  odd.push_back(true);  // unpaired
  const support::BitStream out3 = neo_von_neumann(odd, &st);
  EXPECT_EQ(st.pairs, 1u);
  ASSERT_EQ(out3.size(), 1u);
  EXPECT_TRUE(out3[0]);
}

// ---------------------------------------------------------------------------
// LFSR byte combiner KATs

TEST(NeoLfsrCombiner, PinnedByteKat) {
  // Feed two pinned 64-bit words (SplitMix64(5), MSB first) and check the
  // exact output bytes — pins the tap mask, shift direction and fold
  // count in one shot.
  support::SplitMix64 mix(5);
  const std::uint64_t words[2] = {mix.next(), mix.next()};
  ASSERT_EQ(words[0], 0x63033b0ca389c35aULL);
  ASSERT_EQ(words[1], 0xc097314d939736f8ULL);

  NeoLfsrCombiner lfsr;
  const std::uint8_t expected[2] = {0x44, 0x09};
  for (int w = 0; w < 2; ++w) {
    int fed = 0;
    for (int i = 63; i >= 0; --i) {
      const auto byte = lfsr.shift_in(((words[w] >> i) & 1) != 0);
      ++fed;
      if (fed < NeoLfsrCombiner::kBitsPerByte) {
        EXPECT_FALSE(byte.has_value()) << "byte emitted early at feed " << fed;
      } else {
        ASSERT_TRUE(byte.has_value());
        EXPECT_EQ(*byte, expected[w]);
        // The state runs on across byte boundaries (never re-seeded).
        EXPECT_EQ(lfsr.state(), expected[w]);
      }
    }
  }
}

TEST(NeoLfsrCombiner, DegenerateInputs) {
  // All-zero input never excites the register (parity of 0 is 0).
  NeoLfsrCombiner zeros;
  for (int i = 0; i < NeoLfsrCombiner::kBitsPerByte - 1; ++i) {
    EXPECT_FALSE(zeros.shift_in(false).has_value());
  }
  const auto z = zeros.shift_in(false);
  ASSERT_TRUE(z.has_value());
  EXPECT_EQ(*z, 0x00);

  // All-one input walks the feedback polynomial: pinned value.
  NeoLfsrCombiner ones;
  std::optional<std::uint8_t> o;
  for (int i = 0; i < NeoLfsrCombiner::kBitsPerByte; ++i) {
    o = ones.shift_in(true);
  }
  ASSERT_TRUE(o.has_value());
  EXPECT_EQ(*o, 0xc8);

  // reset() really does zero the fold.
  ones.reset();
  EXPECT_EQ(ones.state(), 0x00);
  for (int i = 0; i < NeoLfsrCombiner::kBitsPerByte - 1; ++i) {
    ones.shift_in(false);
  }
  const auto again = ones.shift_in(false);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, 0x00);
}

// ---------------------------------------------------------------------------
// neoTRNG end-to-end extraction accounting

TEST(NeoTrng, ExtractionPipelineAccounting) {
  NeoTrngConfig cfg;
  cfg.seed = 11;
  NeoTrng trng(cfg);
  // 25 output bytes -> the combiner consumed exactly ceil-enough de-biased
  // bits; the VN acceptance rate on the (unbiased) raw stream is ~1/2.
  const auto bits = trng.generate(25 * 8);
  const VonNeumannStats& st = trng.von_neumann_stats();
  EXPECT_GE(st.accepted, 25u * NeoLfsrCombiner::kBitsPerByte);
  EXPECT_LT(st.accepted,
            25u * NeoLfsrCombiner::kBitsPerByte + NeoLfsrCombiner::kBitsPerByte);
  EXPECT_NEAR(st.rate(), 0.5, 0.1);
  EXPECT_EQ(bits.size(), 200u);
  // Nominal output rate: clock / 32.
  EXPECT_NEAR(trng.throughput_mbps(), cfg.clock_mhz / 32.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Registry + per-architecture behavioral sanity

class ZooSourceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooSourceTest, BehavioralSanity) {
  ZooOptions opt;
  opt.seed = 5;
  auto src = make_zoo_source(GetParam(), opt);
  ASSERT_NE(src, nullptr);

  const auto bits = src->generate(20000);
  EXPECT_LT(stats::bias_percent(bits), 3.0) << src->name();

  // Power-cycle restart: state resets, noise continues -> a different
  // stream (the restart test's premise).
  src->restart();
  const auto after = src->generate(2000);
  EXPECT_NE(bits.slice(0, 2000), after) << src->name();

  // Self-knowledge for the Table-6 columns.
  const sim::ResourceCounts rc = src->resources();
  EXPECT_GT(rc.luts, 0u) << src->name();
  EXPECT_GT(rc.dffs, 0u) << src->name();
  EXPECT_GT(src->clock_mhz(), 0.0);
  EXPECT_GT(src->throughput_mbps(), 0.0);
  EXPECT_LE(src->throughput_mbps(), src->clock_mhz());
  const fpga::ActivityEstimate act = src->activity();
  EXPECT_GT(act.clock_mhz, 0.0);
  EXPECT_GT(act.flip_flops, 0u);
  EXPECT_GT(act.logic_toggle_ghz, 0.0);
}

TEST_P(ZooSourceTest, SameSeedReproducesSameStream) {
  ZooOptions opt;
  opt.seed = 21;
  auto a = make_zoo_source(GetParam(), opt);
  auto b = make_zoo_source(GetParam(), opt);
  EXPECT_EQ(a->generate(4000), b->generate(4000));
  opt.seed = 22;
  auto c = make_zoo_source(GetParam(), opt);
  EXPECT_NE(a->generate(4000), c->generate(4000));
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, ZooSourceTest,
                         ::testing::ValuesIn(zoo_source_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(ZooRegistry, UnknownNameReturnsNull) {
  EXPECT_EQ(make_zoo_source("bogus"), nullptr);
  EXPECT_EQ(make_zoo_source(""), nullptr);
  EXPECT_EQ(make_zoo_source("dhtrng"), nullptr);  // not a zoo entry
  EXPECT_EQ(zoo_source_names().size(), 3u);
}

TEST(ZooRegistry, GateNetlistsCoverEveryArchitecture) {
  const auto nets = zoo_gate_netlists(fpga::DeviceModel::artix7());
  ASSERT_EQ(nets.size(), zoo_source_names().size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    EXPECT_EQ(nets[i].name, zoo_source_names()[i]);
    EXPECT_FALSE(nets[i].watch.empty());
    EXPECT_NO_THROW(nets[i].circuit.validate()) << nets[i].name;
  }
}

// ---------------------------------------------------------------------------
// Netlist-vs-behavioral resource-inventory consistency

TEST(ZooResources, NeoNetlistPlusPostprocMatchesBehavioral) {
  const fpga::DeviceModel device = fpga::DeviceModel::artix7();
  NeoTrngConfig cfg;
  const NeoTrngNetlist netlist = build_neo_trng_netlist(
      device, cfg.clock_mhz, cfg.cells, cfg.chain_base, cfg.chain_step);
  const sim::ResourceCounts front = netlist.circuit.resources();
  const sim::ResourceCounts total = NeoTrng(cfg).resources();
  // Behavioral inventory = elaborated front end + documented
  // post-processing allowance (the VN/LFSR logic the simulator does not
  // elaborate), and the pack groups must sum to the same totals.
  EXPECT_GT(total.luts, front.luts);
  EXPECT_GT(total.dffs, front.dffs);
  sim::ResourceCounts groups;
  for (const auto& g : netlist.pack_groups) {
    groups.luts += g.luts;
    groups.muxes += g.muxes;
    groups.dffs += g.dffs;
  }
  EXPECT_EQ(groups.luts, total.luts);
  EXPECT_EQ(groups.muxes, total.muxes);
  EXPECT_EQ(groups.dffs, total.dffs);
}

TEST(ZooResources, KleinAndHbnPackGroupsMatchBehavioral) {
  const fpga::DeviceModel device = fpga::DeviceModel::artix7();
  {
    KleinTrngConfig cfg;
    const KleinTrngNetlist netlist =
        build_klein_trng_netlist(device, cfg.clock_mhz, cfg.rings);
    sim::ResourceCounts groups;
    for (const auto& g : netlist.pack_groups) {
      groups.luts += g.luts;
      groups.muxes += g.muxes;
      groups.dffs += g.dffs;
    }
    const sim::ResourceCounts total = KleinTrng(cfg).resources();
    EXPECT_EQ(groups.luts, total.luts);
    EXPECT_EQ(groups.dffs, total.dffs);
    // The elaborated front end is the pack groups minus the fold stage.
    const sim::ResourceCounts front = netlist.circuit.resources();
    EXPECT_EQ(front.luts + 1, total.luts);
    EXPECT_EQ(front.dffs + 2, total.dffs);
  }
  {
    HbnTrngConfig cfg;
    const HbnTrngNetlist netlist =
        build_hbn_trng_netlist(device, 600.0, cfg.nodes, cfg.taps);
    // HBN has no un-elaborated post-processing: the netlist inventory IS
    // the behavioral inventory.
    const sim::ResourceCounts front = netlist.circuit.resources();
    const sim::ResourceCounts total = HbnTrng(cfg).resources();
    EXPECT_EQ(front.luts, total.luts);
    EXPECT_EQ(front.dffs, total.dffs);
  }
}

TEST(ZooResources, SlicePackingIsNonTrivial) {
  for (const auto& name : zoo_source_names()) {
    auto src = make_zoo_source(name);
    std::size_t slices = 0;
    if (name == "neo") slices = NeoTrng().slice_report().slice_count();
    if (name == "klein") slices = KleinTrng().slice_report().slice_count();
    if (name == "hbn") slices = HbnTrng().slice_report().slice_count();
    EXPECT_GT(slices, 0u) << name;
    // Sanity: the packer cannot beat the LUT/FF capacity bound.
    const sim::ResourceCounts rc = src->resources();
    EXPECT_GE(slices * 8, std::max(rc.luts / 2, rc.dffs / 8)) << name;
  }
}

// ---------------------------------------------------------------------------
// Compare report

TEST(ZooCompare, DeterministicUnderPinnedSeed) {
  CompareOptions opt;
  opt.bits = 20000;
  opt.devices = {fpga::DeviceModel::artix7()};
  opt.archs = {"hbn", "klein"};
  const CompareReport a = compare_architectures(opt);
  const CompareReport b = compare_architectures(opt);
  ASSERT_EQ(a.rows.size(), 2u);
  EXPECT_EQ(a.text(), b.text());
  // A different seed changes the measured columns but not the layout.
  opt.seed = 43;
  const CompareReport c = compare_architectures(opt);
  EXPECT_NE(a.text(), c.text());
  EXPECT_EQ(c.rows.size(), 2u);
}

TEST(ZooCompare, RowsCarryTheTableSixColumns) {
  CompareOptions opt;
  opt.bits = 20000;
  opt.devices = {fpga::DeviceModel::artix7(), fpga::DeviceModel::virtex6()};
  opt.archs = {"hbn"};
  const CompareReport report = compare_architectures(opt);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.rows[0].device, "Artix-7");
  EXPECT_EQ(report.rows[1].device, "Virtex-6");
  for (const CompareRow& row : report.rows) {
    EXPECT_EQ(row.arch, "HBN(16n/4t)");
    EXPECT_GT(row.throughput_mbps, 0.0);
    EXPECT_GT(row.slices, 0u);
    EXPECT_GT(row.power_mw, 0.0);
    EXPECT_GT(row.min_entropy, 0.0);
    EXPECT_LE(row.min_entropy, 1.0);
    EXPECT_GT(row.sp800_22_applicable, 0);
    EXPECT_GT(row.fom(), 0.0);
    EXPECT_NE(report.text().find(row.device), std::string::npos);
  }
}

TEST(ZooCompare, RejectsBadOptions) {
  CompareOptions opt;
  opt.bits = 100;  // below the FIPS/AIS-31 block
  EXPECT_THROW(compare_architectures(opt), std::invalid_argument);
  opt.bits = 20000;
  opt.archs = {"bogus"};
  EXPECT_THROW(compare_architectures(opt), std::invalid_argument);
}

}  // namespace
}  // namespace dhtrng::core
