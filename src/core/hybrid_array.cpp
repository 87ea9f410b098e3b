#include "core/hybrid_array.h"

#include "support/rng.h"

namespace dhtrng::core {

HybridArrayTrng::HybridArrayTrng(HybridArrayConfig config)
    : config_(config),
      dt_ps_(1e6 / config.clock_mhz),
      scale_(config.device.scaling(config.pvt)),
      shared_noise_(chip_supply_sigma_ps(config.device),
                    config.seed ^ 0xfeedfacecafebeefULL) {
  support::SplitMix64 seeder(config.seed);
  HybridUnitParams params = default_hybrid_params();
  const double delay_scale = config.device.lut_delay_ps / 150.0;
  params.ro1.stage_delay_ps *= delay_scale;
  params.ro2.stage_delay_ps *= delay_scale;
  units_.reserve(static_cast<std::size_t>(config.units));
  for (int u = 0; u < config.units; ++u) {
    units_.emplace_back(params, seeder.next());
  }
}

std::string HybridArrayTrng::name() const {
  return "HybridArray(x" + std::to_string(config_.units) + ")";
}

bool HybridArrayTrng::next_bit() {
  const double shared = shared_noise_.step();
  bool out = false;
  for (HybridUnit& unit : units_) {
    out ^= unit.sample(dt_ps_, shared, scale_,
                       config_.device.ff_aperture_sigma_ps)
               .out;
  }
  return out;
}

void HybridArrayTrng::restart() {
  for (HybridUnit& unit : units_) unit.reset();
}

sim::ResourceCounts HybridArrayTrng::resources() const {
  sim::ResourceCounts rc;
  // Per unit: RO1 = 2 LUTs, RO2 = 1 LUT + 1 MUX; plus an XOR tree and two
  // DFF samplers per unit feeding it.
  rc.luts = 3 * static_cast<std::size_t>(config_.units);
  rc.muxes = static_cast<std::size_t>(config_.units);
  std::size_t fan = 2 * static_cast<std::size_t>(config_.units);
  while (fan > 1) {
    const std::size_t gates = (fan + 5) / 6;
    rc.luts += gates;
    fan = gates;
  }
  rc.dffs = 2 * static_cast<std::size_t>(config_.units) + 1;
  return rc;
}

fpga::ActivityEstimate HybridArrayTrng::activity() const {
  fpga::ActivityEstimate a;
  a.clock_mhz = config_.clock_mhz;
  a.flip_flops = 2 * static_cast<std::size_t>(config_.units) + 1;
  double total = 0.0;
  for (const HybridUnit& unit : units_) {
    const auto& p = unit.params();
    total += 2.0 * p.ro1.stages * 1e3 /
             (2.0 * p.ro1.stages * p.ro1.stage_delay_ps * scale_.delay);
    total += 0.5 * 2.0 * p.ro2.stages * 1e3 /
             (2.0 * p.ro2.stages * p.ro2.stage_delay_ps * scale_.delay);
  }
  a.logic_toggle_ghz = total;
  return a;
}

}  // namespace dhtrng::core
