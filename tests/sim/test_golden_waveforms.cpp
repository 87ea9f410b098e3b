// Golden waveform digests for the event engine: each pinned case runs a
// named netlist (core::golden_gate_netlists) at a fixed (seed, PVT corner)
// and hashes (a) the VCD byte stream of the watch nets and (b) the final
// state — net values and per-net toggle counts.  Any change to the
// scheduler, the noise stream, the netlist builders, or the VCD writer
// shows up as a digest mismatch, which is the point: the production
// engine must reproduce the waveforms bit for bit, forever.
//
// Every case also runs on the reference engine (sim::ReferenceSimulator,
// tests/support/sim_reference.h), which must apply the same events in the
// same order and end in the same state.  That is stronger than comparing
// VCD digests, which only sample the events on the trace grid.
//
// Regenerating (after an intentional engine/netlist change):
//   DHTRNG_REGEN_GOLDEN=1 ./test_sim --gtest_filter='GoldenWaveforms*'
// prints fresh table rows to paste below; see docs/architecture.md.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/netlist.h"
#include "fpga/device.h"
#include "sim/simulator.h"
#include "sim/vcd.h"
#include "support/sha256.h"
#include "support/sim_reference.h"

namespace dhtrng::sim {
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
    {"dhtrng", 1, 20.0, 1.0,
     "8881041b68cfd7348b10638125b19c4f20b6399fa6d6fe73395501fb62846bb8",
     "16bf4db41c3bac764445879dbae018491b6156af31822ee8f2406f9b1632a7e6"},
    {"dhtrng", 1, -20.0, 0.8,
     "e8f4fa405e67915b58f7f0f54e825cf3f323b5ea15b4252cf70a862324ba820e",
     "85e3d5bf61a4ac4e020f82c60ae5773a770b2925b5cf664d47f226b32407dff1"},
    {"dhtrng", 1, 80.0, 1.2,
     "b065ff27a73c4944a981cb7e5509bb047e16ac1e9cd75452197a505ff8d9335b",
     "b6415945e0e87b9c5deb1a7cb44838d8b27bc039aab1be5dde32237a5c9b0d92"},
    {"dhtrng", 7, 20.0, 1.0,
     "3de82ccf6646945427eff9dbf4b0c7470690cb16860740dad43378380672a505",
     "03aa7ab1bd8eda2425a1a0cc1396a3a89dbce7b72b7c6d99857e85d8339a2e8d"},
    {"dhtrng", 7, -20.0, 0.8,
     "6e4ec251cc1fbe9bc30712d43fffb644f13fb18ec5ed86e0c49853aef4e97b29",
     "5229804516f9e2b4838f1a1a95d04cbbb3437372cf468d1d29f0fa5a797028c6"},
    {"dhtrng", 7, 80.0, 1.2,
     "4cb734c5930f3707ef861b1df038e4ce8c22b0d15a71a047a0c4684466fae639",
     "b9e8a3175bdbe79dd7dfb1acc5da4a7886eaffdb3e0fa8404b3eb09c10fe0abc"},
    {"dhtrng_uncoupled", 1, 20.0, 1.0,
     "3a677a654aea6636e1bbc3125f41af606526329ded9dd13b89bb4ad206920610",
     "91feab88dc67e4bf005c66dbb3b20fc04bb1b8e9fc8b33789c7b31461a67d504"},
    {"dhtrng_uncoupled", 1, 80.0, 1.2,
     "9bdb4e93cda63c0d84e4f73a91d0e61a3c5ac9cf3d73aeb21eef71e62136b81c",
     "fd8df573a44211634b8ebd97aef7ee0322b9cc8c9424e41bf71d8bdc082134e1"},
    {"xor_ro", 1, 20.0, 1.0,
     "55d2e5d4a023b43cb1bb134cc243c77dda6d1cc5f58f25b1f3338769aa98c517",
     "243d3c5d4a4db780c6eb6792ad4f94c57eb9d84ff6f2455266e2d8a9241d81fe"},
    {"xor_ro", 1, -20.0, 0.8,
     "62058ddc14fbe03158afaff55cbc24569a0bfa54282268782ed73e292432487d",
     "5b51cae8a43c6d718d7ed813e9cb5eed899beb1e68a57f69979a006680aa7814"},
};

struct Digests {
  std::string vcd;
  std::string state;
};

SimConfig golden_config(const GoldenCase& gc) {
  SimConfig cfg;
  cfg.seed = gc.seed;
  cfg.scaling =
      fpga::DeviceModel::artix7().scaling({gc.temperature_c, gc.voltage_v});
  return cfg;
}

Digests run_case(const core::NamedGateNetlist& net, const GoldenCase& gc) {
  Simulator sim(net.circuit, golden_config(gc));
  VcdTrace trace(net.circuit, sim, net.watch, kResolutionPs);
  trace.run_until(kHorizonPs);

  std::ostringstream vcd;
  trace.write(vcd);
  support::Sha256 hv;
  hv.update(vcd.str());

  // Final-state vector: every net's value and toggle count, serialized
  // textually so a mismatch is greppable when debugging with a dump.
  std::ostringstream state;
  for (NetId n = 0; n < static_cast<NetId>(net.circuit.net_count()); ++n) {
    state << n << '=' << (sim.net_value(n) ? 1 : 0) << ':'
          << sim.toggle_count(n) << '\n';
  }
  state << "events=" << sim.events_processed() << '\n';
  support::Sha256 hs;
  hs.update(state.str());

  return {support::Sha256::hex(hv.finish()), support::Sha256::hex(hs.finish())};
}

const core::NamedGateNetlist& find_netlist(
    const std::vector<core::NamedGateNetlist>& nets, const char* name) {
  for (const auto& n : nets) {
    if (n.name == name) return n;
  }
  throw std::runtime_error(std::string("no golden netlist named ") + name);
}

TEST(GoldenWaveforms, SortedRunMatchesPinnedDigests) {
  const auto nets =
      core::golden_gate_netlists(fpga::DeviceModel::artix7());
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

TEST(GoldenWaveforms, ReferenceSchedulerProducesIdenticalDigests) {
  const auto nets =
      core::golden_gate_netlists(fpga::DeviceModel::artix7());
  for (const GoldenCase& gc : kGolden) {
    EXPECT_EQ(compare_with_reference(find_netlist(nets, gc.netlist).circuit,
                                     golden_config(gc), kHorizonPs),
              "")
        << gc.netlist << " seed " << gc.seed << " @ (" << gc.temperature_c
        << " C, " << gc.voltage_v << " V): engines disagree";
  }
}

}  // namespace
}  // namespace dhtrng::sim
