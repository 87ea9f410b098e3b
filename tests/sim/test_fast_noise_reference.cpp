// The Fast-noise event engine against the reference engine.
//
// core::DhTrng's gate-level backend, the zoo sources and the gate-level
// characterization run the simulator with NoiseMode::Fast, whose pre-combined
// delay blocks are a different stream from the Exact mode the golden digests
// pin.  Here every golden and zoo netlist runs in Fast mode on the
// production simulator and on sim::ReferenceSimulator
// (tests/support/sim_reference.h), which must apply the same events in the
// same order and end in the same state.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/netlist.h"
#include "core/zoo/zoo.h"
#include "fpga/device.h"
#include "sim/simulator.h"
#include "support/sim_reference.h"

namespace dhtrng::sim {
namespace {

constexpr double kHorizonPs = 200000.0;

TEST(FastNoiseReference, GoldenAndZooNetlistsMatchEventForEvent) {
  const fpga::DeviceModel device = fpga::DeviceModel::artix7();
  std::vector<core::NamedGateNetlist> nets = core::golden_gate_netlists(device);
  for (auto& net : core::zoo_gate_netlists(device)) {
    nets.push_back(std::move(net));
  }
  struct Corner {
    double temperature_c;
    double voltage_v;
  };
  for (const core::NamedGateNetlist& net : nets) {
    for (const std::uint64_t seed : {1ull, 7ull}) {
      for (const Corner corner : {Corner{20.0, 1.0}, Corner{-20.0, 0.8},
                                  Corner{80.0, 1.2}}) {
        SimConfig cfg;
        cfg.seed = seed;
        cfg.scaling = device.scaling({corner.temperature_c, corner.voltage_v});
        cfg.noise_mode = noise::NoiseMode::Fast;
        EXPECT_EQ(compare_with_reference(net.circuit, cfg, kHorizonPs), "")
            << net.name << " seed " << seed << " @ (" << corner.temperature_c
            << " C, " << corner.voltage_v << " V)";
      }
    }
  }
}

}  // namespace
}  // namespace dhtrng::sim
