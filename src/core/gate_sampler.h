// Gate-level backend shared by every TRNG model that can run its netlist
// through the event-driven simulator (DhTrng and the zoo sources).  The
// sampler owns the circuit and the simulator over it, and it is the one
// place that decides how a power cycle re-draws the simulator's noise.
//
// Power-cycle look-ahead.  Power cycle r (the simulator the r-th restart()
// builds) is a pure function of (circuit, config, SplitMix64(seed + r)),
// so once two consecutive cycles have read the same number of bits k > 0,
// restart() queues the next cycles on a process-wide pool of idle cores,
// each run until its output DFF holds k samples in the same
// run_until(now() + dt) steps Simulator::next_sample takes.  restart()
// then adopts cycle r already simulated; next_bit() reads the buffered
// samples unchanged.  Every bit and every event is the one a serial run
// produces; only events_processed() can run ahead of the bits read.
// Cycle 0 (the constructor's simulator) is never run ahead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

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

  /// Stops the cycles this sampler queued and waits for them.
  ~GateSampler();
  GateSampler(GateSampler&&) noexcept;
  GateSampler& operator=(GateSampler&&) noexcept;

  /// The output DFF's sample at the next sampling instant.
  bool next_bit() {
    ++cycle_bits_;
    return sim_->next_sample(out_dff_, dt_ps_);
  }

  /// Power cycle: the circuit restarts from its power-on state with a
  /// fresh noise continuation (a power cycle does not replay the same
  /// thermal noise).  After r restarts the simulator is seeded
  /// SplitMix64(seed + r).next(), whether it ran ahead or not.
  void restart();

  const sim::Circuit& circuit() const { return *circuit_; }
  const sim::Simulator& simulator() const { return *sim_; }

 private:
  struct Ahead;  // one power cycle queued on the look-ahead pool

  /// Power cycle `cycle`'s simulator, built and not yet run.
  std::unique_ptr<sim::Simulator> power_on(std::uint64_t cycle) const;
  /// Cycle restarts_ from the front of ahead_, or null to build it inline.
  std::unique_ptr<sim::Simulator> take_ahead();
  /// Queues the cycles after restarts_, each run to `samples` samples.
  void queue_ahead(std::uint64_t samples);
  /// Takes back every queued cycle, waiting for those a worker is running.
  void cancel_ahead() noexcept;

  // Heap-held so the simulator's reference to it survives moves.
  std::unique_ptr<const sim::Circuit> circuit_;
  std::size_t out_dff_;
  double dt_ps_;
  sim::SimConfig config_;
  std::uint64_t seed_;
  std::uint64_t restarts_ = 0;
  std::unique_ptr<sim::Simulator> sim_;
  std::uint64_t cycle_bits_ = 0;       ///< next_bit() calls this cycle
  std::uint64_t last_cycle_bits_ = 0;  ///< next_bit() calls last cycle
  /// Cycles restarts_ + 1, restarts_ + 2, ... in order.
  std::vector<std::shared_ptr<Ahead>> ahead_;
};

}  // namespace dhtrng::core
