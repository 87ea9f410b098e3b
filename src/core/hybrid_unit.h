// The paper's dynamic hybrid entropy unit (Section 3.1, Figure 3).
//
// RO1 free-runs and is sampled by a flip-flop (jitter entropy -> Q1).  Its
// ring node R1 also drives the select input of a MUX inside RO2's loop:
//
//   R1 = 0  ->  RO2 loops through an inverter  ->  oscillation region.
//               High-frequency oscillation smooths the square wave into
//               short pulses, widening the transition edges in time, so
//               sampling Q2 often violates the flip-flop aperture.
//   R1 = 1  ->  RO2 loops through itself       ->  holding region.
//               The loop freezes mid-transition with some probability tau,
//               latching an uncertain sub-threshold level; Eq. 2 with
//               delta = 0 then makes Q2 a near-fair coin.
//
// Out = Q1 XOR Q2 combines jitter and metastability entropy dynamically —
// the "hybrid" of the title.
//
// The fast model below advances both rings in the phase domain once per
// sampling interval and applies the two mechanisms probabilistically; the
// corresponding gate-level netlist lives in netlist.h and is validated to
// produce statistically equivalent output in the tests.
#pragma once

#include <cstdint>

#include "core/ro.h"
#include "noise/pvt.h"
#include "support/rng.h"

namespace dhtrng::core {

struct HybridUnitParams {
  PhaseRoParams ro1;          ///< jitter ring (short and fast)
  PhaseRoParams ro2;          ///< switched hold/oscillate ring
  /// Probability that freezing RO2 catches the loop mid-transition and
  /// latches a sub-threshold level (tau in Eq. 5).  The paper's holding
  /// mechanism is designed to make this large.
  double hold_capture_prob = 0.40;
  /// Extra widening of RO2's transition edges by pulse smoothing while in
  /// the oscillation region (multiplies ro2.edge_width_ps).
  double pulse_smoothing = 3.0;
};

/// Default parameter set used throughout (3-stage RO1, 3-stage RO2);
/// stage delays follow the device via scale factors at sample time.
HybridUnitParams default_hybrid_params();

struct HybridSample {
  bool q1 = false;
  bool q2 = false;
  bool r1 = false;       ///< RO1 level at the sample (the MUX select)
  bool out = false;      ///< q1 ^ q2
  bool q2_metastable = false;
};

/// RO2 of a unit seeded `seed` is seeded `seed ^ kRo2SeedMix` (RO1 takes
/// `seed` itself).
inline constexpr std::uint64_t kRo2SeedMix = 0xd2b74407b1ce6e93ULL;

class HybridUnit {
 public:
  HybridUnit(const HybridUnitParams& params, std::uint64_t seed);

  /// Advance by one sampling interval and sample both flip-flops.
  /// `shared_noise_ps` is the chip-wide supply displacement for this step.
  HybridSample sample(double dt_ps, double shared_noise_ps,
                      const noise::PvtScaling& scale,
                      double aperture_sigma_ps);

  PhaseRo& ro1() { return ro1_; }
  PhaseRo& ro2() { return ro2_; }
  const HybridUnitParams& params() const { return params_; }

  void reset();

 private:
  HybridUnitParams params_;
  PhaseRo ro1_;
  PhaseRo ro2_;
  support::Xoshiro256 rng_;
  bool frozen_ = false;       ///< RO2 currently held
  bool frozen_level_ = false; ///< latched RO2 level while held
  bool frozen_meta_ = false;  ///< latched level is sub-threshold
};

}  // namespace dhtrng::core
