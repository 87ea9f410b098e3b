#include "core/baselines/coso_trng.h"

#include <algorithm>

namespace dhtrng::core {

CosoTrng::CosoTrng(CosoConfig config)
    : config_(config),
      dt_ps_(1e6 / (config.clock_mhz * config.phases)),
      scale_(config.device.scaling(config.pvt)),
      shared_noise_(chip_supply_sigma_ps(config.device),
                    config.seed ^ 0x3c3c3c3c3c3c3c3cULL),
      meta_rng_(config.seed ^ 0xc3c3c3c3c3c3c3c3ULL) {
  const PhaseRoParams p = fabric_ro_params(config.device, 3);
  ring_.emplace(p, config.seed);
  PhaseRoParams p2 = p;
  p2.stage_delay_ps *= 1.06;  // coherent second ring (beat sampling)
  ring2_.emplace(p2, config.seed ^ 0x77777777deadbeefULL);
}

bool CosoTrng::next_bit() {
  // One phase-shifted sample per call; the phase index only matters for the
  // activity bookkeeping (all samples are dt_ps_ apart in time).
  phase_index_ = (phase_index_ + 1) % config_.phases;
  const double shared = shared_noise_.step();
  // The coherent-sampling pair runs free between read-outs; the multiphase
  // capture effectively integrates several ring periods of jitter per
  // emitted bit, modelled as an accumulation gain.
  ring_->advance(dt_ps_, shared, scale_, 3.0);
  ring2_->advance(dt_ps_, shared, scale_, 3.0);
  // Coherent sampling: the slow beat between the two rings concentrates
  // samples near edges, raising the per-sample entropy.
  const double dist =
      std::min(ring_->edge_distance_ps(scale_), ring2_->edge_distance_ps(scale_));
  return aperture_sample(ring_->level() ^ ring2_->level(), dist,
                         config_.device.ff_aperture_sigma_ps * 2.0, meta_rng_);
}

void CosoTrng::restart() {
  ring_->reset();
  ring2_->reset();
  phase_index_ = 0;
}

sim::ResourceCounts CosoTrng::resources() const {
  // Matches the published implementation's inventory (DAC'23): the
  // multiphase clocking burns DFFs rather than LUTs.
  return {24, 0, 33};
}

fpga::ActivityEstimate CosoTrng::activity() const {
  fpga::ActivityEstimate a;
  // The MMCM generates `phases` equally spaced clock phases; the clock
  // manager and distribution burn power like a single network at the
  // aggregate (bit-rate) frequency.
  a.clock_mhz = config_.clock_mhz * config_.phases;
  a.flip_flops = 33;
  a.logic_toggle_ghz =
      2.0 * 3.0 * 1e3 / ring_->period_ps(scale_) +
      2.0 * 3.0 * 1e3 / ring2_->period_ps(scale_);
  return a;
}

}  // namespace dhtrng::core
