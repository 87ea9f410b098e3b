// Cross-architecture differential battery for the entropy-source zoo
// (labels: slow differential).  Four locks per architecture:
//
//  1. Golden waveform digests — every zoo gate netlist runs at pinned
//     (seed, PVT corner) cases and must reproduce its VCD + final-state
//     SHA-256 forever (same contract as tests/sim/test_golden_waveforms
//     for the DH-TRNG netlists).  Regenerate after an intentional change:
//       DHTRNG_REGEN_GOLDEN=1 ./test_zoo_differential
//           --gtest_filter='ZooGoldenWaveforms*'
//  2. Reference-engine equality — the production simulator and the
//     binary-heap oracle (tests/support/sim_reference.h) must apply the
//     same events in the same order and end in the same state.
//  3. Gate-vs-behavioral differential — both backends of each source must
//     land in the same statistical regime on the raw (pre-extraction)
//     stream; the backends share the post-processing code, so raw parity
//     is the strongest like-for-like check available.
//  4. Restart matrix — repeated power-cycles of each architecture must
//     give pairwise-distinct, individually unbiased streams.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/zoo/zoo.h"
#include "fpga/device.h"
#include "sim/simulator.h"
#include "sim/vcd.h"
#include "stats/correlation.h"
#include "support/bitstream.h"
#include "support/sha256.h"
#include "support/sim_reference.h"

namespace dhtrng::core {
namespace {

constexpr double kHorizonPs = 200000.0;
constexpr double kResolutionPs = 25.0;

struct GoldenCase {
  const char* netlist;
  std::uint64_t seed;
  double temperature_c;
  double voltage_v;
  const char* vcd_sha256;
  const char* state_sha256;
};

// Pinned digests (generated once with DHTRNG_REGEN_GOLDEN=1, pasted).
constexpr GoldenCase kGolden[] = {
    {"neo", 1, 20.0, 1.0,
     "570200fc3400765432fb56c3f6cb8ee6d5067b7c73136f1fe8646033f13f5e88",
     "028439a54f738bf3658251b20263a48e9d5e677c09b126b262a3f20daeec0281"},
    {"neo", 9, 80.0, 1.2,
     "0291f27201064870ee35b8dc493f3fad6edf3b037cb6acac7b969c8ed0374fec",
     "03c6213882dc38624146652aaa125f8854cf588fa515f44f9e0b398d4d565964"},
    {"klein", 1, 20.0, 1.0,
     "7630bcdfcfad6e3a3c62a04bf1fb44db50d48ede4c91e2fbbe9ae52332fd5ae7",
     "faf53a4d1c4d0d96c25e37022360a20fc233ef52f4cafa84bc3858c71de4b108"},
    {"klein", 9, -20.0, 0.8,
     "1d4da94083710925fe8cf94e55ddaefa257df7279f16bb4a2c3eee868627d3b4",
     "f2d7e463c868b329e77817173327dfc4cbac59cf5c09d0c2f5b250f85d6b7bb7"},
    {"hbn", 1, 20.0, 1.0,
     "e78152b7b74e98f7a3aebb8784a687c3e409b56b75f92791b742c02039a2b537",
     "4dc3a105dccd6f67603290c445dd2fd6c6bb72a46172362d05371ff339d0d527"},
    {"hbn", 9, 80.0, 1.2,
     "9e39898b2dae895e72de240fdc65344dc7019a122cf3573cddfe2efbb09a0108",
     "83872c03877aa5ce525da9a2c6f9834ee21dfaaf9d0d434bc6e9c640fccdcf96"},
};

struct Digests {
  std::string vcd;
  std::string state;
};

sim::SimConfig golden_config(const GoldenCase& gc) {
  sim::SimConfig cfg;
  cfg.seed = gc.seed;
  cfg.scaling =
      fpga::DeviceModel::artix7().scaling({gc.temperature_c, gc.voltage_v});
  return cfg;
}

Digests run_case(const NamedGateNetlist& net, const GoldenCase& gc) {
  sim::Simulator sim(net.circuit, golden_config(gc));
  sim::VcdTrace trace(net.circuit, sim, net.watch, kResolutionPs);
  trace.run_until(kHorizonPs);

  std::ostringstream vcd;
  trace.write(vcd);
  support::Sha256 hv;
  hv.update(vcd.str());

  std::ostringstream state;
  for (sim::NetId n = 0; n < static_cast<sim::NetId>(net.circuit.net_count());
       ++n) {
    state << n << '=' << (sim.net_value(n) ? 1 : 0) << ':'
          << sim.toggle_count(n) << '\n';
  }
  state << "events=" << sim.events_processed() << '\n';
  support::Sha256 hs;
  hs.update(state.str());

  return {support::Sha256::hex(hv.finish()), support::Sha256::hex(hs.finish())};
}

const NamedGateNetlist& find_netlist(
    const std::vector<NamedGateNetlist>& nets, const char* name) {
  for (const auto& n : nets) {
    if (n.name == name) return n;
  }
  throw std::runtime_error(std::string("no zoo netlist named ") + name);
}

TEST(ZooGoldenWaveforms, SortedRunMatchesPinnedDigests) {
  const auto nets = zoo_gate_netlists(fpga::DeviceModel::artix7());
  const bool regen = std::getenv("DHTRNG_REGEN_GOLDEN") != nullptr;
  for (const GoldenCase& gc : kGolden) {
    const Digests d = run_case(find_netlist(nets, gc.netlist), gc);
    if (regen) {
      std::printf("    {\"%s\", %llu, %.1f, %.1f,\n     \"%s\",\n     \"%s\"},\n",
                  gc.netlist, static_cast<unsigned long long>(gc.seed),
                  gc.temperature_c, gc.voltage_v, d.vcd.c_str(),
                  d.state.c_str());
      continue;
    }
    EXPECT_EQ(d.vcd, gc.vcd_sha256)
        << gc.netlist << " seed " << gc.seed << " @ (" << gc.temperature_c
        << " C, " << gc.voltage_v << " V): VCD stream diverged";
    EXPECT_EQ(d.state, gc.state_sha256)
        << gc.netlist << " seed " << gc.seed << " @ (" << gc.temperature_c
        << " C, " << gc.voltage_v << " V): final state diverged";
  }
  if (regen) GTEST_SKIP() << "regeneration mode: digests printed above";
}

TEST(ZooGoldenWaveforms, ReferenceSchedulerProducesIdenticalDigests) {
  const auto nets = zoo_gate_netlists(fpga::DeviceModel::artix7());
  for (const GoldenCase& gc : kGolden) {
    EXPECT_EQ(sim::compare_with_reference(
                  find_netlist(nets, gc.netlist).circuit, golden_config(gc),
                  kHorizonPs),
              "")
        << gc.netlist << " seed " << gc.seed << ": engines disagree";
  }
}

// ---------------------------------------------------------------------------
// Gate-vs-behavioral differential

class ZooBackendDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooBackendDifferential, RawStreamsLandInTheSameRegime) {
  // Both backends emit the raw (pre-extraction) sample stream so the
  // comparison excludes the shared post-processing code.  A gate-level
  // bit costs a full simulator step, so the sample budget is modest; the
  // 3-sigma band on 4000 fair bits is ~2.4 percentage points — use 5.
  constexpr std::size_t kGateBits = 4000;
  constexpr std::size_t kFastBits = 20000;
  constexpr double kBandPercent = 5.0;

  ZooOptions opt;
  opt.seed = 3;
  opt.raw = true;

  opt.backend = Backend::Fast;
  auto fast = make_zoo_source(GetParam(), opt);
  ASSERT_NE(fast, nullptr);
  const double fast_bias = stats::bias_percent(fast->generate(kFastBits));
  EXPECT_LT(fast_bias, kBandPercent) << fast->name();

  opt.backend = Backend::GateLevel;
  auto gate = make_zoo_source(GetParam(), opt);
  ASSERT_NE(gate, nullptr);
  const support::BitStream gate_bits = gate->generate(kGateBits);
  EXPECT_LT(stats::bias_percent(gate_bits), kBandPercent) << gate->name();

  // Both backends advertise the same design point.
  EXPECT_EQ(fast->clock_mhz(), gate->clock_mhz());
  EXPECT_EQ(fast->throughput_mbps(), gate->throughput_mbps());
  const sim::ResourceCounts fr = fast->resources();
  const sim::ResourceCounts gr = gate->resources();
  EXPECT_EQ(fr.luts, gr.luts) << GetParam();
  EXPECT_EQ(fr.muxes, gr.muxes) << GetParam();
  EXPECT_EQ(fr.dffs, gr.dffs) << GetParam();
}

TEST_P(ZooBackendDifferential, GateBackendIsDeterministicPerSeedAndMode) {
  constexpr std::size_t kBits = 1500;
  for (const noise::NoiseMode mode :
       {noise::NoiseMode::Exact, noise::NoiseMode::Fast}) {
    ZooOptions opt;
    opt.seed = 17;
    opt.raw = true;
    opt.backend = Backend::GateLevel;
    opt.noise_mode = mode;
    auto a = make_zoo_source(GetParam(), opt);
    auto b = make_zoo_source(GetParam(), opt);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->generate(kBits), b->generate(kBits))
        << GetParam() << (mode == noise::NoiseMode::Fast ? " fast" : " exact");
  }
  // Fast-noise waveforms are deterministic but NOT bit-compatible with
  // Exact — the trimmed-kernel contract (noise::NoiseMode).
  ZooOptions opt;
  opt.seed = 17;
  opt.raw = true;
  opt.backend = Backend::GateLevel;
  opt.noise_mode = noise::NoiseMode::Exact;
  auto exact = make_zoo_source(GetParam(), opt);
  opt.noise_mode = noise::NoiseMode::Fast;
  auto fastnoise = make_zoo_source(GetParam(), opt);
  EXPECT_NE(exact->generate(kBits), fastnoise->generate(kBits)) << GetParam();
}

// ---------------------------------------------------------------------------
// Restart matrix

TEST_P(ZooBackendDifferential, RestartMatrixStreamsAreDistinctAndUnbiased) {
  constexpr int kRestarts = 8;
  constexpr std::size_t kBits = 4000;

  ZooOptions opt;
  opt.seed = 29;
  auto src = make_zoo_source(GetParam(), opt);
  ASSERT_NE(src, nullptr);

  std::set<std::string> fingerprints;
  double ones = 0.0;
  for (int r = 0; r < kRestarts; ++r) {
    if (r > 0) src->restart();
    const support::BitStream bits = src->generate(kBits);
    EXPECT_LT(stats::bias_percent(bits), 6.0)
        << src->name() << " restart " << r;
    for (std::size_t i = 0; i < bits.size(); ++i) ones += bits[i] ? 1 : 0;
    support::Sha256 h;
    std::string packed;
    for (std::size_t i = 0; i < bits.size(); ++i)
      packed.push_back(bits[i] ? '1' : '0');
    h.update(packed);
    fingerprints.insert(support::Sha256::hex(h.finish()));
  }
  // Every power cycle must produce a fresh stream (no stuck state), and
  // the aggregate must be fair.
  EXPECT_EQ(fingerprints.size(), static_cast<std::size_t>(kRestarts))
      << src->name();
  const double frac = ones / (kRestarts * kBits);
  EXPECT_NEAR(frac, 0.5, 0.02) << src->name();
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, ZooBackendDifferential,
                         ::testing::ValuesIn(zoo_source_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

}  // namespace
}  // namespace dhtrng::core
