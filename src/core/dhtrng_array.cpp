#include "core/dhtrng_array.h"

#include <stdexcept>

#include "fpga/slice_packer.h"
#include "support/rng.h"

namespace dhtrng::core {

DhTrngArray::DhTrngArray(DhTrngArrayConfig config) : config_(config) {
  if (config.cores == 0) {
    throw std::invalid_argument("DhTrngArray: cores == 0");
  }
  support::SplitMix64 seeder(config.core.seed);
  cores_.reserve(config.cores);
  for (std::size_t c = 0; c < config.cores; ++c) {
    DhTrngConfig per_core = config.core;
    per_core.seed = seeder.next();
    cores_.emplace_back(per_core);
  }
}

std::string DhTrngArray::name() const {
  return "DH-TRNG x" + std::to_string(cores_.size());
}

bool DhTrngArray::next_bit() {
  const bool bit = cores_[next_core_].next_bit();
  next_core_ = (next_core_ + 1) % cores_.size();
  return bit;
}

void DhTrngArray::restart() {
  for (DhTrng& core : cores_) core.restart();
  next_core_ = 0;
}

sim::ResourceCounts DhTrngArray::resources() const {
  const sim::ResourceCounts one = cores_.front().resources();
  return {one.luts * cores_.size(), one.muxes * cores_.size(),
          one.dffs * cores_.size()};
}

double DhTrngArray::clock_mhz() const { return cores_.front().clock_mhz(); }

double DhTrngArray::throughput_mbps() const {
  return clock_mhz() * static_cast<double>(cores_.size());
}

fpga::ActivityEstimate DhTrngArray::activity() const {
  // One shared PLL/clock network; per-core flip-flops and logic add up.
  fpga::ActivityEstimate total = cores_.front().activity();
  total.flip_flops *= cores_.size();
  total.logic_toggle_ghz *= static_cast<double>(cores_.size());
  return total;
}

fpga::SliceReport DhTrngArray::slice_report() const {
  std::vector<fpga::PackGroup> groups;
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    for (fpga::PackGroup g :
         build_dhtrng_netlist(config_.core.device, clock_mhz()).pack_groups) {
      g.name = "core" + std::to_string(c) + "/" + g.name;
      groups.push_back(std::move(g));
    }
  }
  return fpga::SlicePacker{}.pack(groups);
}

}  // namespace dhtrng::core
