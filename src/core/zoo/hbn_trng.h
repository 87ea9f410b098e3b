// Rosin-style hybrid Boolean network generator (after Rosin, Rontani &
// Gauthier, "Ultra-Fast Physical Generation of Random Numbers Using Hybrid
// Boolean Networks" — PAPERS.md).  An autonomous network of XOR nodes wired
// in a ring executes unclocked Boolean dynamics: every node continuously
// evaluates the XOR of its two neighbours through its own gate delay, and
// because the delays are heterogeneous the network never settles — it
// performs broadband chaotic transitions whose bandwidth is set by the gate
// delay, not by a sampling clock.  Two nodes are XNORs so the all-zeros /
// all-ones states are not fixed points (an XNOR of equal inputs is 1,
// which boots the network from the reset state).  The "hybrid" part is the
// clocked boundary: a handful of nodes are sampled into DFFs at the system
// clock and XOR-ed into one output bit per cycle — the asynchronous core
// runs orders of magnitude faster than the clock, so consecutive samples
// decorrelate within a cycle and the design yields 1 bit/cycle at whatever
// clock the fabric carries.  That makes it the highest-throughput,
// smallest-area entry in the zoo's Table-6-style comparison.
//
// Backends: the Fast model runs one ChaoticRing per node, each advanced
// with its neighbours' phases as the chaotic mode-switching drive (the same
// machinery that models the DH-TRNG's central XOR rings); the GateLevel
// backend elaborates the actual XOR/XNOR net through the event simulator.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/chaotic_ring.h"
#include "core/gate_sampler.h"
#include "core/trng.h"
#include "fpga/device.h"
#include "fpga/slice_packer.h"
#include "noise/jitter.h"
#include "noise/pvt.h"
#include "sim/simulator.h"

namespace dhtrng::core {

/// Gate-level netlist: `nodes` XOR/XNOR gates in a ring (net n<i> driven by
/// the gate reading n<i-1> and n<i+1>), `taps` sampling DFFs on spread
/// nodes, an XOR reduction and the output register.
struct HbnTrngNetlist {
  sim::Circuit circuit;
  std::vector<std::size_t> tap_dffs;
  std::size_t out_dff = 0;
  sim::NetId out_net = sim::kInvalidNet;
  sim::NetId clock_net = sim::kInvalidNet;
  std::vector<fpga::PackGroup> pack_groups;
};

HbnTrngNetlist build_hbn_trng_netlist(const fpga::DeviceModel& device,
                                      double clock_mhz, int nodes = 16,
                                      int taps = 4);

struct HbnTrngConfig {
  fpga::DeviceModel device = fpga::DeviceModel::artix7();
  noise::PvtCondition pvt{};
  std::uint64_t seed = 1;
  Backend backend = Backend::Fast;
  /// XOR nodes in the autonomous ring (nodes 0 and nodes/2 are XNORs).
  int nodes = 16;
  /// Sampled nodes (DFF taps), spread evenly around the ring.
  int taps = 4;
  /// Sampling clock in MHz; 0 selects the device maximum over the 1-LUT
  /// tap-to-output path, capped at the PLL limit — the design's point is
  /// that the asynchronous core imposes no clock ceiling of its own.
  double clock_mhz = 0.0;
  /// Gate-level backend noise fidelity (Fast backend ignores it).
  noise::NoiseMode noise_mode = noise::NoiseMode::Exact;
};

class HbnTrng final : public TrngSource {
 public:
  explicit HbnTrng(HbnTrngConfig config = {});

  std::string name() const override;
  bool next_bit() override;
  void restart() override;

  sim::ResourceCounts resources() const override;
  double clock_mhz() const override { return clock_mhz_; }
  fpga::ActivityEstimate activity() const override;

  fpga::SliceReport slice_report() const;

  const HbnTrngConfig& config() const { return config_; }

  /// Gate-level backend only: the underlying simulator.
  const sim::Simulator* simulator() const {
    return gate_ ? &gate_->simulator() : nullptr;
  }

 private:
  bool next_bit_fast();

  HbnTrngConfig config_;
  double clock_mhz_;
  double dt_ps_;
  noise::PvtScaling scale_;

  // Fast backend state.
  std::vector<ChaoticRing> nodes_;
  noise::SharedSupplyNoise shared_noise_;
  support::Xoshiro256 meta_rng_;

  // Gate-level backend state.
  std::optional<GateSampler> gate_;
};

}  // namespace dhtrng::core
