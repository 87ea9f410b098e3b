// Analytic noise references for the noise tests: the Hajimiri
// ring-oscillator phase-noise model (the paper's Equation 1) with its
// conversion to per-edge timing jitter, and the marginal sigma of the
// Voss-McCartney flicker process (noise::FlickerNoise).
//
// Equation 1:
//
//   L_min{df} = (8N / 3eta) * (kT / P) * (Vdd/Vchar + Vdd/(I*R)) * (f0/df)^2
//
// For a white-noise-dominated oscillator the single-sideband phase noise at
// offset df relates to the per-second timing-jitter accumulation constant
// kappa (sigma_t(tau) = kappa * sqrt(tau)) by
//
//   L{df} = (f0^2 * kappa^2) / df^2        =>  kappa = sqrt(L) * df / f0.
//
// This is a standalone reference for Eq. 1's scaling laws in ring order N,
// frequency f0 and power P (tests/noise/test_phase_noise.cpp); no model
// derives its sigmas from it.  Those all come from
// fpga::DeviceModel::gate_jitter: per gate in the event simulator, and per
// ring through core::fabric_ro_params or a model's own ring parameters.
#pragma once

namespace dhtrng::noise {

struct PhaseNoiseParams {
  int stages = 3;                ///< ring order N
  double frequency_hz = 1e9;     ///< oscillation frequency f0
  double power_w = 1e-4;         ///< power consumption P of the ring
  double eta = 1.0;              ///< proportionality constant
  double temperature_k = 293.15; ///< absolute temperature T
  double vdd_v = 1.0;            ///< supply
  double vchar_v = 0.5;          ///< characteristic voltage (Vdd/V term)
  double ir_v = 0.5;             ///< I*R voltage drop term
};

/// Single-sideband phase noise L{df} (linear power ratio, not dBc/Hz)
/// at offset frequency `offset_hz`, per Eq. (1).
double phase_noise_ssb(const PhaseNoiseParams& p, double offset_hz);

/// Same in dBc/Hz.
double phase_noise_dbc(const PhaseNoiseParams& p, double offset_hz);

/// Jitter accumulation constant kappa (seconds per sqrt-second): the
/// standard deviation of the oscillator's absolute timing error after
/// observing for `tau` seconds is kappa * sqrt(tau).
double jitter_kappa(const PhaseNoiseParams& p);

/// Per-edge (half-period) white jitter sigma in picoseconds implied by the
/// model: sigma_edge = kappa * sqrt(T_half).
double edge_jitter_sigma_ps(const PhaseNoiseParams& p);

/// Accumulated jitter sigma (ps) over a sampling interval `interval_s`.
double accumulated_jitter_sigma_ps(const PhaseNoiseParams& p,
                                   double interval_s);

/// Std-dev of the marginal distribution of a FlickerNoise(amplitude,
/// octaves, seed) sample: amplitude * sqrt(octaves).
double flicker_marginal_sigma(double amplitude, int octaves);

}  // namespace dhtrng::noise
