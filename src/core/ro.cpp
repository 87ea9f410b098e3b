#include "core/ro.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/special_functions.h"

namespace dhtrng::core {

namespace {

double derive_shared_coupling(int stages) {
  // Injection locking / supply coupling is strongest for short fast rings;
  // rolls off roughly with the square of the ring order.
  const double n = static_cast<double>(stages);
  return 1.0 / (1.0 + (n / 4.0) * (n / 4.0));
}

}  // namespace

RingStructure draw_ring_structure(const PhaseRoParams& params,
                                  support::Xoshiro256& rng) {
  const double n = static_cast<double>(params.stages);
  RingStructure rs;
  rs.base_period_ps = 2.0 * n * params.stage_delay_ps *
                      (1.0 + rng.gaussian(0.0, params.period_tolerance));
  // Stage-mismatch duty error: independent per-stage offsets accumulate as
  // sqrt(N) in absolute time, so the *relative* duty error goes as
  // 1/sqrt(N) for longer rings.
  rs.duty = std::clamp(
      0.5 + rng.gaussian(0.0, params.duty_sigma / std::sqrt(n)), 0.2, 0.8);
  rs.initial_phase = rng.uniform();  // arbitrary but fixed
  return rs;
}

PhaseRo::PhaseRo(const PhaseRoParams& params, std::uint64_t seed)
    : params_(params), rng_(seed),
      flicker_(params.flicker_sigma_ps / std::sqrt(12.0), 12,
               seed ^ 0x6a09e667f3bcc908ULL) {
  if (params.stages < 2) throw std::invalid_argument("PhaseRo: stages < 2");
  const RingStructure rs = draw_ring_structure(params_, rng_);
  base_period_ps_ = rs.base_period_ps;
  duty_ = rs.duty;
  coupling_ = params_.shared_coupling >= 0.0
                  ? params_.shared_coupling
                  : derive_shared_coupling(params_.stages);
  initial_phase_ = rs.initial_phase;
  phase_ = initial_phase_;
  last_flicker_ = flicker_.next();
}

void PhaseRo::advance(double dt_ps, double shared_noise_ps,
                      const noise::PvtScaling& scale, double extra_jitter) {
  const double period = base_period_ps_ * scale.delay;
  // Deterministic rotation.
  double delta_t = dt_ps;
  // White (entropy-bearing) accumulated jitter: kappa * sqrt(dt).
  const double white_sigma = params_.kappa_ps_per_sqrt_ps * std::sqrt(dt_ps) *
                             scale.white_jitter * extra_jitter;
  delta_t += rng_.gaussian(0.0, white_sigma);
  // Flicker phase wander: correlated, low-entropy; we add the *increment*
  // of the flicker process so the walk stays bounded in distribution.
  const double flicker_now = flicker_.next() * scale.correlated_noise;
  delta_t += flicker_now - last_flicker_;
  last_flicker_ = flicker_now;
  // Shared supply displacement, weighted by this ring's coupling.
  delta_t += shared_noise_ps * coupling_ * scale.correlated_noise;

  phase_ += delta_t / period;
  phase_ -= std::floor(phase_);
}

double PhaseRo::edge_distance_ps(const noise::PvtScaling& scale) const {
  const double period = period_ps(scale);
  // Edges at phase 0 and phase duty_ (wrapping at 1).
  const double p = phase_;
  double d = std::min({std::abs(p - 0.0), std::abs(p - duty_),
                       std::abs(p - 1.0)});
  return d * period;
}

PhaseRoParams fabric_ro_params(const fpga::DeviceModel& device, int stages) {
  PhaseRoParams p;
  p.stages = stages;
  p.stage_delay_ps = device.lut_delay_ps + 0.35 * device.net_delay_ps;
  p.kappa_ps_per_sqrt_ps = 0.035 * device.gate_jitter.white_sigma_ps / 1.2;
  p.flicker_sigma_ps = 3.0;
  return p;
}

double chip_supply_sigma_ps(const fpga::DeviceModel& device) {
  return device.gate_jitter.correlated_sigma_ps * 2.0;
}

bool aperture_sample(bool level, double dist_ps, double sigma_ps,
                     support::Xoshiro256& rng) {
  if (dist_ps < 4.0 * sigma_ps &&
      !rng.bernoulli(support::normal_cdf(dist_ps / sigma_ps))) {
    return !level;
  }
  return level;
}

sim::NetId build_ring_oscillator(sim::Circuit& circuit,
                                 const std::string& prefix, int stages,
                                 sim::NetId enable, double element_delay_ps) {
  if (stages < 2) throw std::invalid_argument("build_ring_oscillator: stages < 2");
  if (stages % 2 == 0) {
    throw std::invalid_argument(
        "build_ring_oscillator: stages must be odd for an inverting loop");
  }
  // stages inverting elements: 1 NAND (with enable) + (stages-1) inverters.
  std::vector<sim::NetId> nodes;
  nodes.reserve(static_cast<std::size_t>(stages));
  for (int i = 0; i < stages; ++i) {
    nodes.push_back(circuit.add_net(prefix + "_n" + std::to_string(i)));
    // Alternating initial pattern: consistent with every inverter, so the
    // only start-up violation is at the enable NAND and exactly one
    // wavefront circulates (an all-zero start would launch N wavefronts and
    // the ring would "oscillate" at N times its physical frequency).
    circuit.set_initial(nodes.back(), i % 2 == 0);
  }
  const sim::NetId out = nodes.back();
  circuit.add_gate(sim::GateKind::Nand, {enable, out}, nodes[0],
                   element_delay_ps);
  for (int i = 1; i < stages; ++i) {
    circuit.add_gate(sim::GateKind::Inv, {nodes[static_cast<std::size_t>(i) - 1]},
                     nodes[static_cast<std::size_t>(i)], element_delay_ps);
  }
  return out;
}

}  // namespace dhtrng::core
