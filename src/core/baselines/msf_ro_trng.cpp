#include "core/baselines/msf_ro_trng.h"

#include <cmath>

namespace dhtrng::core {

MsfRoTrng::MsfRoTrng(MsfRoConfig config)
    : config_(config),
      dt_ps_(1e6 / config.clock_mhz),
      scale_(config.device.scaling(config.pvt)),
      shared_noise_(chip_supply_sigma_ps(config.device),
                    config.seed ^ 0x5a5a5a5a5a5a5a5aULL),
      meta_rng_(config.seed ^ 0xa5a5a5a5a5a5a5a5ULL) {
  PhaseRoParams p;
  // Loop period set by the feedback order (fast); jitter accumulation set
  // by the full chain (sqrt(stages / feedback_order) boost).
  p.stages = config.feedback_order;
  p.stage_delay_ps =
      config.device.lut_delay_ps + 0.35 * config.device.net_delay_ps;
  p.kappa_ps_per_sqrt_ps =
      0.035 * (config.device.gate_jitter.white_sigma_ps / 1.2) *
      std::sqrt(static_cast<double>(config.stages) /
                static_cast<double>(config.feedback_order));
  p.flicker_sigma_ps = 3.5;
  ring_.emplace(p, config.seed);
}

bool MsfRoTrng::next_bit() {
  const double shared = shared_noise_.step();
  // The feedback taps sustain several interacting wavefronts in the chain;
  // their collisions amplify the loop's effective white jitter (the
  // design's entropy advantage), modelled as a jitter gain proportional to
  // the chain/loop length ratio.
  const double chaos_gain =
      static_cast<double>(config_.stages) /
      static_cast<double>(config_.feedback_order) * 1.5;
  ring_->advance(dt_ps_, shared, scale_, chaos_gain);
  return aperture_sample(ring_->level(), ring_->edge_distance_ps(scale_),
                         config_.device.ff_aperture_sigma_ps, meta_rng_);
}

void MsfRoTrng::restart() { ring_->reset(); }

sim::ResourceCounts MsfRoTrng::resources() const {
  sim::ResourceCounts rc;
  rc.luts = static_cast<std::size_t>(config_.stages) + 3;  // chain + taps
  rc.dffs = 2;  // sampler + output
  return rc;
}

fpga::ActivityEstimate MsfRoTrng::activity() const {
  fpga::ActivityEstimate a;
  a.clock_mhz = config_.clock_mhz;
  a.flip_flops = 2;
  a.logic_toggle_ghz = 2.0 * static_cast<double>(config_.stages) * 1e3 /
                       ring_->period_ps(scale_);
  return a;
}

}  // namespace dhtrng::core
