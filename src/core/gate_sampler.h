// Gate-level backend shared by every TRNG model that can run its netlist
// through the event-driven simulator (DhTrng and the zoo sources).  The
// sampler owns the circuit and the simulator over it, and it is the one
// place that decides how a power cycle re-draws the simulator's noise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "fpga/device.h"
#include "noise/jitter.h"
#include "noise/pvt.h"
#include "sim/circuit.h"
#include "sim/simulator.h"

namespace dhtrng::core {

/// Which model a TRNG runs: Fast is the phase-domain model (src/core/*.h,
/// used for the multi-megabit experiments); GateLevel is the event-driven
/// simulator on the exact netlist (waveform-accurate, and the reference
/// the fast models are validated against).
enum class Backend { Fast, GateLevel };

class GateSampler {
 public:
  /// Simulates `circuit` with the device's gate jitter at the PVT scale
  /// `scale`, sampling DFF `out_dff` once every `dt_ps`.  `seed` seeds the
  /// simulator directly and is the base of every restart's noise.
  GateSampler(sim::Circuit circuit, std::size_t out_dff, double dt_ps,
              const fpga::DeviceModel& device, const noise::PvtScaling& scale,
              noise::NoiseMode noise_mode, std::uint64_t seed);

  /// The output DFF's sample at the next sampling instant.
  bool next_bit() { return sim_->next_sample(out_dff_, dt_ps_); }

  /// Power cycle: the circuit restarts from its power-on state with a
  /// fresh noise continuation (a power cycle does not replay the same
  /// thermal noise).  After r restarts the simulator is seeded
  /// SplitMix64(seed + r).next().
  void restart();

  const sim::Circuit& circuit() const { return *circuit_; }
  const sim::Simulator& simulator() const { return *sim_; }

 private:
  void start(std::uint64_t sim_seed);

  // Heap-held so the simulator's reference to it survives moves.
  std::unique_ptr<const sim::Circuit> circuit_;
  std::size_t out_dff_;
  double dt_ps_;
  sim::SimConfig config_;
  std::uint64_t seed_;
  std::uint64_t restarts_ = 0;
  std::unique_ptr<sim::Simulator> sim_;
};

}  // namespace dhtrng::core
