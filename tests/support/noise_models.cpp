#include "support/noise_models.h"

#include <cmath>

namespace dhtrng::noise {

namespace {
constexpr double kBoltzmann = 1.380649e-23;  // J/K
}

double phase_noise_ssb(const PhaseNoiseParams& p, double offset_hz) {
  const double n = static_cast<double>(p.stages);
  const double kt_over_p = kBoltzmann * p.temperature_k / p.power_w;
  const double voltage_term = p.vdd_v / p.vchar_v + p.vdd_v / p.ir_v;
  const double ratio = p.frequency_hz / offset_hz;
  return (8.0 * n / (3.0 * p.eta)) * kt_over_p * voltage_term * ratio * ratio;
}

double phase_noise_dbc(const PhaseNoiseParams& p, double offset_hz) {
  return 10.0 * std::log10(phase_noise_ssb(p, offset_hz));
}

double jitter_kappa(const PhaseNoiseParams& p) {
  // L{df} = f0^2 kappa^2 / df^2; evaluate at any offset (the df cancels).
  const double offset = 1e6;
  const double l = phase_noise_ssb(p, offset);
  return std::sqrt(l) * offset / p.frequency_hz;
}

double edge_jitter_sigma_ps(const PhaseNoiseParams& p) {
  const double t_half = 0.5 / p.frequency_hz;
  return jitter_kappa(p) * std::sqrt(t_half) * 1e12;
}

double accumulated_jitter_sigma_ps(const PhaseNoiseParams& p,
                                   double interval_s) {
  return jitter_kappa(p) * std::sqrt(interval_s) * 1e12;
}

double flicker_marginal_sigma(double amplitude, int octaves) {
  return amplitude * std::sqrt(static_cast<double>(octaves));
}

}  // namespace dhtrng::noise
