// Klein-style high-throughput RO sampler (after Klein et al., "Design and
// Implementation of a High Quality and High Throughput TRNG in FPGA" —
// PAPERS.md).  A bank of short free-running ring oscillators is sampled at
// a fast system clock, XOR-reduced, and lightly post-processed by XOR-
// folding consecutive samples — trading half the sample rate for the
// squared-bias suppression that lets the design pass the batteries at
// clocks where a single RO sample would still be structured.  Throughput
// comes from clocking the sampler near the fabric limit rather than from
// waiting out full jitter accumulation, which is exactly the design point
// the DH-TRNG paper's Table 6 positions itself against.
//
// Same dual-backend split as DhTrng/NeoTrng: the Fast backend runs one
// PhaseRo per ring; the GateLevel backend elaborates
// build_klein_trng_netlist through the event simulator.  The XOR fold is
// behavioral in both backends (it is one LUT + one FF of clocked logic on
// the raw sample stream; the backend swaps only the entropy source).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/gate_sampler.h"
#include "core/ro.h"
#include "core/trng.h"
#include "fpga/device.h"
#include "fpga/slice_packer.h"
#include "noise/jitter.h"
#include "noise/pvt.h"
#include "sim/simulator.h"

namespace dhtrng::core {

/// Gate-level netlist: ring bank + per-ring sampler DFF + XOR6 reduction
/// tree + raw output register.  The XOR fold stage is accounted in
/// `pack_groups` ("klein-fold") but runs behaviorally.
struct KleinTrngNetlist {
  sim::Circuit circuit;
  std::vector<std::size_t> sampler_dffs;
  std::size_t out_dff = 0;
  sim::NetId out_net = sim::kInvalidNet;
  sim::NetId clock_net = sim::kInvalidNet;
  std::vector<fpga::PackGroup> pack_groups;
};

KleinTrngNetlist build_klein_trng_netlist(const fpga::DeviceModel& device,
                                          double clock_mhz, int rings = 16);

struct KleinTrngConfig {
  fpga::DeviceModel device = fpga::DeviceModel::artix7();
  noise::PvtCondition pvt{};
  std::uint64_t seed = 1;
  Backend backend = Backend::Fast;
  /// Parallel rings in the bank.  Ring r has kKleinRingLengths[r % 4]
  /// inverting elements — mixed short lengths so nominally related
  /// frequencies do not lock.
  int rings = 16;
  /// Sampling clock; Klein's design point is "as fast as the fabric
  /// carries the XOR reduction", i.e. a couple hundred MHz.
  double clock_mhz = 200.0;
  /// XOR-fold factor: output bit = XOR of `fold` consecutive raw samples
  /// (>= 1; 1 disables folding).  Output rate = clock / fold.
  int fold = 2;
  /// Emit raw (unfolded) samples — differential-battery hook.
  bool raw = false;
  /// Gate-level backend noise fidelity (Fast backend ignores it).
  noise::NoiseMode noise_mode = noise::NoiseMode::Exact;
};

/// Mixed ring lengths of the bank (inverting elements, all odd).
inline constexpr int kKleinRingLengths[4] = {3, 5, 7, 9};

class KleinTrng final : public TrngSource {
 public:
  explicit KleinTrng(KleinTrngConfig config = {});

  std::string name() const override;
  bool next_bit() override;
  void restart() override;

  sim::ResourceCounts resources() const override;
  double clock_mhz() const override { return config_.clock_mhz; }
  double throughput_mbps() const override {
    return config_.raw ? config_.clock_mhz
                       : config_.clock_mhz / config_.fold;
  }
  fpga::ActivityEstimate activity() const override;

  fpga::SliceReport slice_report() const;

  const KleinTrngConfig& config() const { return config_; }

  /// Gate-level backend only: the underlying simulator.
  const sim::Simulator* simulator() const {
    return gate_ ? &gate_->simulator() : nullptr;
  }

 private:
  bool raw_bit();

  KleinTrngConfig config_;
  double dt_ps_;
  noise::PvtScaling scale_;

  // Fast backend state.
  std::vector<PhaseRo> rings_;
  noise::SharedSupplyNoise shared_noise_;
  support::Xoshiro256 meta_rng_;

  // Gate-level backend state.
  std::optional<GateSampler> gate_;
};

}  // namespace dhtrng::core
