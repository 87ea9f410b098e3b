#include "core/baselines/xor_ro_trng.h"

#include "core/netlist.h"

namespace dhtrng::core {

XorRoTrng::XorRoTrng(XorRoConfig config)
    : config_(config),
      dt_ps_(1e6 / config.clock_mhz),
      scale_(config.device.scaling(config.pvt)),
      shared_noise_(chip_supply_sigma_ps(config.device),
                    config.seed ^ 0x1234abcd5678ef09ULL),
      meta_rng_(config.seed ^ 0x0f0f0f0f0f0f0f0fULL) {
  support::SplitMix64 seeder(config.seed);
  rings_.reserve(static_cast<std::size_t>(config.rings));
  for (int r = 0; r < config.rings; ++r) {
    PhaseRoParams p = fabric_ro_params(config.device, config.stages);
    p.period_tolerance = config.period_tolerance;
    rings_.emplace_back(p, seeder.next());
  }
}

std::string XorRoTrng::name() const {
  return "XOR-RO(" + std::to_string(config_.stages) + "-stage x" +
         std::to_string(config_.rings) + ")";
}

bool XorRoTrng::next_bit() {
  // The previous output bit's switching current disturbs the supply; all
  // rings receive the same displacement, which is what survives the XOR
  // reduction as serial correlation (see header).
  const double data_kick =
      config_.data_noise_ps * (prev_bit_ ? 0.5 : -0.5) *
      scale_.correlated_noise;
  const double shared = shared_noise_.step() + data_kick;
  bool out = false;
  for (PhaseRo& ring : rings_) {
    ring.advance(dt_ps_, shared, scale_);
    out ^= aperture_sample(ring.level(), ring.edge_distance_ps(scale_),
                           config_.device.ff_aperture_sigma_ps, meta_rng_);
  }
  prev_bit_ = out;
  return out;
}

void XorRoTrng::restart() {
  for (PhaseRo& ring : rings_) ring.reset();
}

sim::ResourceCounts XorRoTrng::resources() const {
  sim::ResourceCounts rc;
  // Each ring: `stages` inverting elements (LUTs, one with enable).
  rc.luts = static_cast<std::size_t>(config_.stages) *
            static_cast<std::size_t>(config_.rings);
  rc.luts += xor_lut6_tree_luts(static_cast<std::size_t>(config_.rings));
  rc.dffs = static_cast<std::size_t>(config_.rings) + 1;  // samplers + output
  return rc;
}

fpga::ActivityEstimate XorRoTrng::activity() const {
  fpga::ActivityEstimate a;
  a.clock_mhz = config_.clock_mhz;
  a.flip_flops = static_cast<std::size_t>(config_.rings) + 1;
  double total = 0.0;
  for (const PhaseRo& ring : rings_) {
    total += 2.0 * static_cast<double>(config_.stages) * 1e3 /
             ring.period_ps(scale_);
  }
  a.logic_toggle_ghz = total;
  return a;
}

}  // namespace dhtrng::core
