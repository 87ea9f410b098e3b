// Ring-oscillator models.
//
// Two views of the same physical object:
//
//  * PhaseRo — the fast phase-domain model used for bulk bitstream
//    generation.  The oscillator is a phase accumulator advanced once per
//    sampling interval; the advance carries the deterministic increment
//    dt/T plus accumulated white jitter (sigma = kappa*sqrt(dt), the
//    standard white-FM random-walk law implied by the paper's Eq. 1),
//    a flicker component, and the device-wide shared supply noise.
//    Per-instance process variation perturbs period and duty cycle.
//
//  * build_ring_oscillator — the gate-level netlist (enable NAND plus a
//    chain of inverters) for the event-driven simulator, used by tests,
//    examples and the backend-equivalence validation.
//
// Entropy phenomenology captured here (calibrated against paper Table 1):
//  - relative accumulated jitter per sample ~ kappa*sqrt(Ts)/T_ro shrinks
//    as the ring gets longer -> long rings give more structured (rotation-
//    like) bit sequences;
//  - fast short rings couple more strongly into the shared supply/substrate
//    noise and injection-lock to each other, so parallel "independent"
//    rings are less independent -> XOR reduction works less well;
//  - static duty-cycle error from stage mismatch ~ 1/sqrt(N) biases bits.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "fpga/device.h"
#include "noise/flicker.h"
#include "noise/jitter.h"
#include "noise/pvt.h"
#include "sim/circuit.h"
#include "support/rng.h"

namespace dhtrng::core {

struct PhaseRoParams {
  int stages = 3;
  double stage_delay_ps = 400.0;  ///< inverter + routed-net delay per stage
  /// White-jitter accumulation constant: a free-running interval of dt ps
  /// accumulates sigma(dt) = kappa * sqrt(dt) ps of white phase jitter.
  double kappa_ps_per_sqrt_ps = 0.035;
  double flicker_sigma_ps = 3.0;      ///< marginal sigma of 1/f phase wander
  double duty_sigma = 0.04;           ///< stage-mismatch duty error at N=1
  double period_tolerance = 0.01;     ///< per-instance period variation
  /// Coupling of the ring into the device-wide shared noise (injection
  /// locking / supply).  Scales like 1/(1 + (N/4)^2): strong for short
  /// fast rings.  Set explicitly if nonzero-default behaviour is unwanted.
  double shared_coupling = -1.0;      ///< -1 = derive from stages
  double edge_width_ps = 25.0;        ///< sampling transition width (Eq. 2)
};

/// Per-instance process variation of one ring, frozen at construction
/// (mismatch, not noise).
struct RingStructure {
  double base_period_ps = 0.0;  ///< nominal 2*N*stage delay, perturbed
  double duty = 0.5;            ///< clamped to [0.2, 0.8]
  double initial_phase = 0.0;   ///< power-on phase in [0, 1)
};

/// Draws period mismatch, duty error and power-on phase, in that order,
/// from `rng`: PhaseRo's constructor and every lane of the bitsliced SoA
/// engine call this, so both carry the same instance for the same seed.
RingStructure draw_ring_structure(const PhaseRoParams& params,
                                  support::Xoshiro256& rng);

class PhaseRo {
 public:
  PhaseRo(const PhaseRoParams& params, std::uint64_t seed);

  /// Advance simulated time by dt_ps.  `shared_noise_ps` is the common
  /// supply-noise displacement for this step (one value per chip per step);
  /// `scale` applies PVT factors.  `extra_jitter` multiplies the white
  /// component (used by chaotic rings).
  void advance(double dt_ps, double shared_noise_ps,
               const noise::PvtScaling& scale, double extra_jitter = 1.0);

  /// Fractional phase in [0, 1).  Phase 0 is the rising edge.
  double phase() const { return phase_; }

  /// Square-wave level at the current phase (duty-corrected).
  bool level() const { return phase_ < duty_; }

  /// Distance (in ps) from the current phase to the nearest transition
  /// edge of the square wave.
  double edge_distance_ps(const noise::PvtScaling& scale) const;

  /// Nominal oscillation period at the given PVT corner (ps).
  double period_ps(const noise::PvtScaling& scale) const {
    return base_period_ps_ * scale.delay;
  }

  double duty() const { return duty_; }
  int stages() const { return params_.stages; }
  double shared_coupling() const { return coupling_; }
  const PhaseRoParams& params() const { return params_; }

  /// Power-on reset: phase back to the startup value; noise continues.
  void reset() { phase_ = initial_phase_; }

  /// Deterministic phase injection (used by the feedback strategy).
  void inject_phase(double delta) {
    phase_ += delta;
    phase_ -= std::floor(phase_);
  }

 private:
  PhaseRoParams params_;
  double base_period_ps_;
  double duty_;
  double coupling_;
  double initial_phase_;
  double phase_;
  support::Xoshiro256 rng_;
  noise::FlickerNoise flicker_;
  double last_flicker_ = 0.0;
};

/// Phase-model parameters of a plain fabric ring: `stages` LUT inverters,
/// each a LUT delay plus a short routed net, with the white jitter scaled
/// from the device's per-gate sigma.
PhaseRoParams fabric_ro_params(const fpga::DeviceModel& device, int stages);

/// Sigma (ps) of a phase-domain model's chip-wide supply AR(1) process:
/// twice the device's per-gate correlated sigma.
double chip_supply_sigma_ps(const fpga::DeviceModel& device);

/// A flip-flop's sample of a signal at `level` whose nearest transition is
/// `dist_ps` away (paper Eq. 2).  Within 4 sigma of the edge the sample
/// keeps `level` with probability Phi(dist / sigma) and resolves the other
/// way otherwise; beyond 4 sigma it is `level` and `rng` is not drawn.
bool aperture_sample(bool level, double dist_ps, double sigma_ps,
                     support::Xoshiro256& rng);

/// Gate-level ring oscillator: NAND(en, last) -> inv -> ... -> inv, loop.
/// Returns the id of the ring output net (the last inverter's output,
/// "<prefix>_n<stages-1>").  `stages` counts the inverting elements
/// including the enable NAND; it must be odd (so the loop inverts) and at
/// least 3.
sim::NetId build_ring_oscillator(sim::Circuit& circuit,
                                 const std::string& prefix, int stages,
                                 sim::NetId enable, double element_delay_ps);

}  // namespace dhtrng::core
