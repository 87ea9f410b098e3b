#include "core/gate_sampler.h"

#include <utility>

#include "support/rng.h"

namespace dhtrng::core {

GateSampler::GateSampler(sim::Circuit circuit, std::size_t out_dff,
                         double dt_ps, const fpga::DeviceModel& device,
                         const noise::PvtScaling& scale,
                         noise::NoiseMode noise_mode, std::uint64_t seed)
    : circuit_(std::make_unique<const sim::Circuit>(std::move(circuit))),
      out_dff_(out_dff),
      dt_ps_(dt_ps),
      seed_(seed) {
  config_.gate_jitter = device.gate_jitter;
  config_.scaling = scale;
  config_.noise_mode = noise_mode;
  start(seed);
}

void GateSampler::restart() {
  start(support::SplitMix64(seed_ + ++restarts_).next());
}

void GateSampler::start(std::uint64_t sim_seed) {
  config_.seed = sim_seed;
  sim_ = std::make_unique<sim::Simulator>(*circuit_, config_);
  sim_->record_dff(out_dff_);
}

}  // namespace dhtrng::core
