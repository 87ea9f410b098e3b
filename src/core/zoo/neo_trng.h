// neoTRNG-style generator: latch-decoupled inverter-chain cells, a 2-bit
// John von Neumann extractor and an LFSR byte combiner (after Nolting's
// neoTRNG; see SNIPPETS.md).  Each cell is a free-running inverter chain
// whose stages are separated by transparent latches — the latches chop the
// chain's supply coupling and let every stage accumulate jitter
// independently, which is what lets the design live entirely in plain
// fabric logic.  The cell outputs are synchronized (2 FF) into the sampling
// clock domain and XOR-ed into one raw bit per cycle; raw bits feed the
// von Neumann extractor ("edge extraction": a 01 pair emits 1, a 10 pair
// emits 0, 00/11 pairs are dropped), and 64 de-biased bits are folded
// through an 8-bit LFSR whose state is emitted as one output byte.
//
// Two backends, same split as DhTrng:
//  * Backend::Fast      — one PhaseRo per cell (latch decoupling modeled as
//                         near-zero shared supply coupling), aperture
//                         metastability on the synchronizer sample.
//  * Backend::GateLevel — the event-driven simulator running the cell
//                         netlist (build_neo_trng_netlist); latches appear
//                         as BUF elements since the simulator has no latch
//                         primitive and a free-running latch chain is
//                         delay-equivalent to a buffer chain.
// In BOTH backends the von Neumann extractor and LFSR combiner run
// behaviorally on the raw sample stream — the backend swaps only the
// entropy source, so the differential tests compare like with like and the
// extractor KATs (tests/core/test_zoo.cpp) pin the post-processing exactly.
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
#include "support/bitstream.h"

namespace dhtrng::core {

/// Acceptance accounting of the 2-bit von Neumann extractor: `pairs` input
/// pairs consumed, `accepted` de-biased bits emitted.  For an unbiased
/// independent input the acceptance rate converges to 1/2 (2p(1-p) at
/// bias p), which is where neoTRNG's nominal clock/32 byte rate comes from.
struct VonNeumannStats {
  std::uint64_t pairs = 0;
  std::uint64_t accepted = 0;
  double rate() const {
    return pairs == 0 ? 0.0
                      : static_cast<double>(accepted) /
                            static_cast<double>(pairs);
  }
};

/// Stateless 2-bit von Neumann extraction over non-overlapping pairs
/// (bit 2k first, bit 2k+1 second; a trailing odd bit is ignored).
/// neoTRNG's "edge" convention: emit the *second* bit of a discordant
/// pair, so 01 -> 1 (rising edge) and 10 -> 0 (falling edge).  Note the
/// opposite convention from core::peres_extract(raw, 1) (postprocess.h),
/// which emits classic 01 -> 0 / 10 -> 1; both de-bias i.i.d. inputs.
support::BitStream neo_von_neumann(const support::BitStream& raw,
                                   VonNeumannStats* stats = nullptr);

/// 8-bit Fibonacci LFSR byte combiner: every de-biased input bit is XOR-ed
/// into the feedback (taps x^8 + x^6 + x^5 + x^4 + 1), and after every 64
/// fed bits the current state is emitted as one output byte.  The state is
/// never reset between bytes — each byte mixes the entire history.
class NeoLfsrCombiner {
 public:
  /// Feedback tap mask over state bits 7,5,4,3 (x^8 + x^6 + x^5 + x^4 + 1,
  /// a primitive polynomial over GF(2)).
  static constexpr std::uint8_t kTaps = 0xB8;
  /// De-biased bits folded per emitted byte (neoTRNG's 64:8 compression).
  static constexpr int kBitsPerByte = 64;

  /// Shift one de-biased bit in; returns the output byte when this bit
  /// completes a 64-bit fold, std::nullopt otherwise.
  std::optional<std::uint8_t> shift_in(bool bit);

  std::uint8_t state() const { return state_; }
  void reset() {
    state_ = 0;
    fed_ = 0;
  }

 private:
  std::uint8_t state_ = 0;
  int fed_ = 0;
};

/// Gate-level netlist of the neoTRNG front end (cells + synchronizers +
/// XOR combine + raw-bit register).  The von Neumann extractor and LFSR
/// combiner are sequential byte-domain logic that the event simulator has
/// nothing to say about; they are accounted in `pack_groups` (the
/// "postproc" group) but not elaborated as gates.
struct NeoTrngNetlist {
  sim::Circuit circuit;
  std::vector<std::size_t> sync_dffs;  ///< 2 synchronizer DFFs per cell
  std::size_t out_dff = 0;             ///< raw-bit output register
  sim::NetId out_net = sim::kInvalidNet;
  sim::NetId clock_net = sim::kInvalidNet;
  std::vector<fpga::PackGroup> pack_groups;
};

NeoTrngNetlist build_neo_trng_netlist(const fpga::DeviceModel& device,
                                      double clock_mhz, int cells = 3,
                                      int chain_base = 5, int chain_step = 2);

struct NeoTrngConfig {
  fpga::DeviceModel device = fpga::DeviceModel::artix7();
  noise::PvtCondition pvt{};
  std::uint64_t seed = 1;
  Backend backend = Backend::Fast;
  /// Number of inverter-chain cells XOR-ed together.
  int cells = 3;
  /// Inverting elements in cell 0's chain; cell i has base + step*i (both
  /// must keep every chain length odd so the loops oscillate).
  int chain_base = 5;
  int chain_step = 2;
  double clock_mhz = 100.0;
  /// Emit the raw synchronized XOR samples (skip von Neumann + LFSR) —
  /// used by the differential battery to compare backends pre-extraction.
  bool raw = false;
  /// Gate-level backend noise fidelity (Fast backend ignores it).
  noise::NoiseMode noise_mode = noise::NoiseMode::Exact;
};

class NeoTrng final : public TrngSource {
 public:
  explicit NeoTrng(NeoTrngConfig config = {});

  std::string name() const override;
  bool next_bit() override;
  void restart() override;

  sim::ResourceCounts resources() const override;
  double clock_mhz() const override { return config_.clock_mhz; }
  /// Nominal output rate: 1/2 pair rate * 1/2 acceptance * 8/64 combiner.
  double throughput_mbps() const override {
    return config_.raw ? config_.clock_mhz : config_.clock_mhz / 32.0;
  }
  fpga::ActivityEstimate activity() const override;

  fpga::SliceReport slice_report() const;

  const NeoTrngConfig& config() const { return config_; }
  /// von Neumann acceptance accounting since construction/restart.
  const VonNeumannStats& von_neumann_stats() const { return vn_stats_; }

  /// Gate-level backend only: the underlying simulator.
  const sim::Simulator* simulator() const {
    return gate_ ? &gate_->simulator() : nullptr;
  }

 private:
  bool raw_bit();

  NeoTrngConfig config_;
  double dt_ps_;
  noise::PvtScaling scale_;

  // Fast backend state.
  std::vector<PhaseRo> cells_;
  noise::SharedSupplyNoise shared_noise_;
  support::Xoshiro256 meta_rng_;

  // Gate-level backend state.
  std::optional<GateSampler> gate_;

  // Post-processing state (both backends).
  VonNeumannStats vn_stats_;
  NeoLfsrCombiner combiner_;
  bool pair_first_ = false;
  bool have_first_ = false;
  std::uint8_t byte_ = 0;
  int byte_bits_left_ = 0;
};

}  // namespace dhtrng::core
