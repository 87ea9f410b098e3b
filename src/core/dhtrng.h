// DH-TRNG top level (Figure 5a): two nested coupling structures, a
// 12-flip-flop multistage sampling array with an XOR tree, an output
// register, and the feedback register closing the loop into the central
// XOR rings.  One true random bit per sampling-clock cycle.
//
// Two interchangeable backends:
//  * Backend::Fast      — phase-domain models (src/core/*.h); used for the
//                         multi-megabit statistical experiments.
//  * Backend::GateLevel — a GateSampler running the exact 23-LUT / 4-MUX /
//                         14-DFF netlist (netlist.h); used for waveform-
//                         accurate studies and to validate the fast backend
//                         (tests/core/test_backend_equivalence).
#pragma once

#include <cstdint>
#include <optional>

#include "core/coupling.h"
#include "core/gate_sampler.h"
#include "core/netlist.h"
#include "core/trng.h"
#include "fpga/device.h"
#include "fpga/slice_packer.h"
#include "noise/jitter.h"
#include "noise/pvt.h"
#include "sim/simulator.h"

namespace dhtrng::core {

struct DhTrngConfig {
  fpga::DeviceModel device = fpga::DeviceModel::artix7();
  noise::PvtCondition pvt{};
  std::uint64_t seed = 1;
  Backend backend = Backend::Fast;
  /// Section 3.2 reinforcement strategies (ablation switches).
  bool coupling = true;
  bool feedback = true;
  /// Sampling clock in MHz; 0 selects the device maximum over the 2-LUT
  /// sampling-array path (the paper's PLL setting: 670 / 620 MHz).
  double clock_mhz = 0.0;
  /// Multiplies every white/flicker noise magnitude in the phase models —
  /// a sensitivity knob for stress tests (noise_scale << 1 approximates a
  /// cold, quiet die where only the architecture's chaos is left).
  double noise_scale = 1.0;
  /// Data-dependent supply disturbance (ps): the output register's load
  /// current displaces all ring phases coherently.  Negligible at the
  /// nominal corner, but it scales with the fourth power of the correlated-
  /// noise PVT factor, which is what makes measured min-entropy dip at the
  /// corners of Figure 9.  Set 0 to disable.
  double data_noise_ps = 10.0;
  /// Noise fidelity (see noise::NoiseMode).  Applies to the gate-level
  /// backend's event simulator; the phase-domain Fast backend has a single
  /// exact-grade stream and ignores it.  The bitsliced bulk backend
  /// (DhTrngSoA) draws fast-grade noise only; DhTrngArray{cores = 64} is
  /// its exact-grade counterpart.
  noise::NoiseMode noise_mode = noise::NoiseMode::Exact;
};

/// The device/PVT-tuned phase-model parameter set DhTrng's fast backend is
/// built from (kappa, stage delays, hold-capture probability etc. scaled to
/// the device and corner).  Exposed so the bitsliced SoA backend
/// (dhtrng_soa.h) instantiates lanes from exactly the same parameters.
CouplingStructureParams tuned_coupling_params(const fpga::DeviceModel& device,
                                              const noise::PvtCondition& pvt,
                                              double noise_scale);

/// The fast backend's structure B is seeded `seed ^ kStructureBSeedMix`
/// (structure A takes `seed`).
inline constexpr std::uint64_t kStructureBSeedMix = 0x7f4a7c159e3779b9ULL;

class DhTrng final : public TrngSource {
 public:
  explicit DhTrng(DhTrngConfig config = {});

  std::string name() const override;
  bool next_bit() override;
  void restart() override;

  sim::ResourceCounts resources() const override;
  double clock_mhz() const override { return clock_mhz_; }
  fpga::ActivityEstimate activity() const override;

  /// Slice packing report in the paper's type-constrained layout
  /// (Figure 5b); 8 slices for the full design.
  fpga::SliceReport slice_report() const;

  const DhTrngConfig& config() const { return config_; }

  /// Fraction of emitted bits during which at least one hybrid unit's RO2
  /// sample was metastable (fast backend health indicator).
  double metastable_fraction() const;

  /// Gate-level backend only: access to the underlying simulator.
  const sim::Simulator* simulator() const {
    return gate_ ? &gate_->simulator() : nullptr;
  }

 private:
  bool next_bit_fast();

  DhTrngConfig config_;
  double clock_mhz_;
  double dt_ps_;
  noise::PvtScaling scale_;

  // Fast backend state.
  std::optional<CouplingStructure> structure_a_;
  std::optional<CouplingStructure> structure_b_;
  noise::SharedSupplyNoise shared_noise_;
  bool out_reg_ = false;       ///< output register
  bool feedback_reg_ = false;  ///< feedback register (out delayed one cycle)
  std::uint64_t bits_emitted_ = 0;
  std::uint64_t metastable_bits_ = 0;

  // Gate-level backend state.
  std::optional<GateSampler> gate_;
};

}  // namespace dhtrng::core
