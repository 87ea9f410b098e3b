#include "core/dhtrng.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace dhtrng::core {

namespace {

// Corner penalty on the metastability mechanisms: away from the nominal
// bias point the sub-threshold holding window narrows and the pulse
// smoothing weakens (transistor operating point moves), which is the main
// reason measured min-entropy dips slightly at the PVT corners (Figure 9).
double corner_penalty(const noise::PvtCondition& pvt) {
  const double dv = (pvt.voltage_v - 1.0) / 0.2;
  const double dt = (pvt.temperature_c - 20.0) / 50.0;
  return 0.10 * dv * dv + 0.06 * dt * dt;
}

CouplingStructureParams tuned_params(const fpga::DeviceModel& device,
                                     const noise::PvtCondition& pvt,
                                     double noise_scale) {
  CouplingStructureParams p = default_coupling_params();
  // Device-specific noise levels: per-edge jitter scales into the phase
  // models' kappa; the 45 nm Virtex-6 cells are a bit noisier and slower.
  const double kappa_scale =
      device.gate_jitter.white_sigma_ps / 1.2 * noise_scale;
  const double delay_scale = device.lut_delay_ps / 150.0;
  for (HybridUnitParams* u : {&p.unit_a, &p.unit_b}) {
    u->ro1.kappa_ps_per_sqrt_ps *= kappa_scale;
    u->ro2.kappa_ps_per_sqrt_ps *= kappa_scale;
    u->ro1.flicker_sigma_ps *= noise_scale;
    u->ro2.flicker_sigma_ps *= noise_scale;
    u->ro1.stage_delay_ps *= delay_scale;
    u->ro2.stage_delay_ps *= delay_scale;
  }
  p.central_1.kappa_ps_per_sqrt_ps *= kappa_scale;
  p.central_2.kappa_ps_per_sqrt_ps *= kappa_scale;
  p.central_1.flicker_sigma_ps *= noise_scale;
  p.central_2.flicker_sigma_ps *= noise_scale;
  p.central_1.xor_delay_ps *= delay_scale;
  p.central_2.xor_delay_ps *= delay_scale;
  // PVT corner effects on the metastability mechanisms.  The sub-threshold
  // capture probability is itself thermal-noise driven, so it also scales
  // (capped at 1) with the stress knob.
  const double penalty = corner_penalty(pvt);
  const double factor = std::max(1.0 - 0.6 * penalty, 0.2) *
                        std::min(noise_scale, 1.0);
  p.unit_a.hold_capture_prob *= factor;
  p.unit_b.hold_capture_prob *= factor;
  p.unit_a.pulse_smoothing = 1.0 + (p.unit_a.pulse_smoothing - 1.0) * factor;
  p.unit_b.pulse_smoothing = 1.0 + (p.unit_b.pulse_smoothing - 1.0) * factor;
  return p;
}

}  // namespace

CouplingStructureParams tuned_coupling_params(const fpga::DeviceModel& device,
                                              const noise::PvtCondition& pvt,
                                              double noise_scale) {
  return tuned_params(device, pvt, noise_scale);
}

DhTrng::DhTrng(DhTrngConfig config)
    : config_(config),
      clock_mhz_(config.clock_mhz > 0.0
                     ? config.clock_mhz
                     : config.device.max_clock_mhz(2, config.pvt)),
      dt_ps_(1e6 / clock_mhz_),
      scale_(config.device.scaling(config.pvt)),
      shared_noise_(chip_supply_sigma_ps(config.device),
                    config.seed ^ 0xc0ffee1234567890ULL) {
  if (config_.backend == Backend::Fast) {
    const CouplingStructureParams params =
        tuned_params(config_.device, config_.pvt, config_.noise_scale);
    structure_a_.emplace(params, config_.seed);
    structure_b_.emplace(params, config_.seed ^ kStructureBSeedMix);
  } else {
    DhTrngNetlist n = build_dhtrng_netlist(config_.device, clock_mhz_,
                                           config_.coupling, config_.feedback);
    gate_.emplace(std::move(n.circuit), n.out_dff, dt_ps_, config_.device,
                  scale_, config_.noise_mode, config_.seed);
  }
}

std::string DhTrng::name() const {
  std::string n = "DH-TRNG";
  if (!config_.coupling) n += "/no-coupling";
  if (!config_.feedback) n += "/no-feedback";
  return n;
}

bool DhTrng::next_bit() {
  return gate_ ? gate_->next_bit() : next_bit_fast();
}

bool DhTrng::next_bit_fast() {
  // Data-dependent supply disturbance (see DhTrngConfig::data_noise_ps);
  // the quartic PVT scaling makes it a corner effect.
  const double corr = scale_.correlated_noise;
  const double data_kick = config_.data_noise_ps *
                           (out_reg_ ? 0.5 : -0.5) * corr * corr * corr * corr;
  const double shared = shared_noise_.step() + data_kick;
  // The flip-flop aperture is a thermal-noise window: it narrows with the
  // stress knob.
  const double aperture = config_.device.ff_aperture_sigma_ps *
                          std::min(config_.noise_scale, 1.0);
  const bool fb = out_reg_;  // feedback register: previous output bit
  const CouplingSample a =
      structure_a_->sample(dt_ps_, fb, config_.coupling, config_.feedback,
                           shared, scale_, aperture);
  const CouplingSample b =
      structure_b_->sample(dt_ps_, fb, config_.coupling, config_.feedback,
                           shared, scale_, aperture);
  bool bit = false;
  for (bool v : a.bits) bit ^= v;
  for (bool v : b.bits) bit ^= v;
  out_reg_ = bit;
  ++bits_emitted_;
  if (a.any_metastable || b.any_metastable) ++metastable_bits_;
  return bit;
}

void DhTrng::restart() {
  if (gate_) {
    gate_->restart();
    return;
  }
  // Power cycle: circuit state returns to power-on values, the physical
  // noise keeps evolving (the RNG streams are not rewound).
  structure_a_->reset();
  structure_b_->reset();
  out_reg_ = false;
}

sim::ResourceCounts DhTrng::resources() const {
  // 23 LUTs, 4 MUXs, 14 DFFs (Section 3.3); the gate-level netlist is the
  // source of truth and the tests assert both agree.
  if (gate_) return gate_->circuit().resources();
  return {23, 4, 14};
}

fpga::SliceReport DhTrng::slice_report() const {
  return fpga::SlicePacker{}.pack(
      build_dhtrng_netlist(config_.device, clock_mhz_).pack_groups);
}

fpga::ActivityEstimate DhTrng::activity() const {
  fpga::ActivityEstimate a;
  a.clock_mhz = clock_mhz_;
  a.flip_flops = 14;
  // Analytic toggle estimate: each ring node toggles at twice the ring
  // frequency; RO2 oscillates only ~half the time (holding region).
  const CouplingStructureParams p = tuned_params(config_.device, config_.pvt, config_.noise_scale);
  const auto ring_toggle_ghz = [&](const PhaseRoParams& rp, double act) {
    const double period_ps =
        2.0 * rp.stages * rp.stage_delay_ps * scale_.delay;
    return act * 2.0 * static_cast<double>(rp.stages) * 1e3 / period_ps;
  };
  double total = 0.0;
  for (const HybridUnitParams* u : {&p.unit_a, &p.unit_b}) {
    total += ring_toggle_ghz(u->ro1, 1.0);
    total += ring_toggle_ghz(u->ro2, 0.5);
  }
  // Central rings: chaotic switching near the 2-XOR loop rate.
  total += 2.0 * (2.0 * 2.0 * 1e3 /
                  (2.0 * 2.0 * p.central_1.xor_delay_ps * scale_.delay));
  total *= 2.0;  // two coupling structures
  // Sampling array: 14 FFs + tree toggling at ~clock/2 each.
  total += 17.0 * clock_mhz_ * 0.5e-3;
  a.logic_toggle_ghz = total;
  return a;
}

double DhTrng::metastable_fraction() const {
  if (bits_emitted_ == 0) return 0.0;
  return static_cast<double>(metastable_bits_) /
         static_cast<double>(bits_emitted_);
}

}  // namespace dhtrng::core
