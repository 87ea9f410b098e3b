// Gate-level netlist of the full DH-TRNG (Figure 5a), built for the
// event-driven simulator and consumed by the FPGA area/power models.
//
// Inventory (matches the paper's Section 3.3 exactly):
//   entropy source: 20 LUTs + 4 MUXs
//     per coupling structure (x2):
//       RO1 of unit A/B:    NAND(en) + BUF        = 2 LUTs each
//       RO2 of unit A/B:    INV + MUX2 loop       = 1 LUT + 1 MUX each
//       central ring 1/2:   2 XOR gates each      = 4 LUTs
//   sampling array: 3 LUTs + 14 DFFs
//     12 sampling DFFs, XOR tree (XOR6 + XOR6 + XOR2 = 3 LUTs),
//     output DFF, feedback DFF.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fpga/device.h"
#include "fpga/slice_packer.h"
#include "sim/circuit.h"

namespace dhtrng::core {

struct DhTrngNetlist {
  sim::Circuit circuit;
  std::vector<std::size_t> sample_dffs;  ///< the 12 ring-sampling DFFs
  std::size_t out_dff = 0;               ///< final output register
  std::size_t feedback_dff = 0;          ///< feedback register
  sim::NetId out_net = sim::kInvalidNet;
  sim::NetId enable_net = sim::kInvalidNet;
  sim::NetId clock_net = sim::kInvalidNet;
  /// Packing groups in the paper's type-constrained layout.
  std::vector<fpga::PackGroup> pack_groups;
};

/// Build the DH-TRNG netlist for `device` with sampling clock `clock_mhz`.
/// `coupling` / `feedback` correspond to the Section 3.2 strategies and are
/// exposed for the ablation experiments (disabling coupling turns the
/// central rings into fixed-mode oscillators; disabling feedback ties the
/// feedback line low).
DhTrngNetlist build_dhtrng_netlist(const fpga::DeviceModel& device,
                                   double clock_mhz, bool coupling = true,
                                   bool feedback = true);

/// XOR-reduces `inputs` (non-empty) through a tree of LUT6 XOR gates of
/// `delay_ps` each: every level groups its nets in sixes, a lone leftover
/// net passes up unchanged, and the gate nets are named "xt<level>_<i>".
/// Returns the root net; a single input is its own root.
sim::NetId build_xor_lut6_tree(sim::Circuit& circuit,
                               std::vector<sim::NetId> inputs, double delay_ps);

/// LUT count of build_xor_lut6_tree over `inputs` nets.
std::size_t xor_lut6_tree_luts(std::size_t inputs);

/// Gate-level netlist of the classic parallel-XOR RO TRNG (the Table 1
/// baseline): `rings` ring oscillators of `stages` elements, each sampled
/// by a DFF, XOR-reduced into an output register.
struct XorRoNetlist {
  sim::Circuit circuit;
  std::vector<std::size_t> sampler_dffs;
  std::size_t out_dff = 0;
  sim::NetId out_net = sim::kInvalidNet;
  sim::NetId clock_net = sim::kInvalidNet;
};

XorRoNetlist build_xor_ro_netlist(const fpga::DeviceModel& device,
                                  int stages, int rings, double clock_mhz);

/// A named gate-level netlist plus a curated set of nets to trace — the
/// shared inventory behind the golden-waveform digest tests
/// (tests/sim/test_golden_waveforms.cpp) and `bench_sim_microbench`.
/// Changing any of these circuits invalidates the pinned digests; see
/// docs/architecture.md ("Regenerating golden digests").
struct NamedGateNetlist {
  std::string name;
  sim::Circuit circuit;
  std::vector<sim::NetId> watch;  ///< nets traced into the golden VCD
};

/// The DH-TRNG netlist (full and with the Section 3.2 strategies ablated)
/// and the parallel-XOR RO baseline, all built for `device` at a 600 MHz
/// sampling clock.
std::vector<NamedGateNetlist> golden_gate_netlists(
    const fpga::DeviceModel& device);

}  // namespace dhtrng::core
