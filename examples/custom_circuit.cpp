// Building a custom circuit on the gate-level substrate: a 5-stage ring
// oscillator sampled by a flip-flop, i.e. the textbook jitter TRNG of the
// paper's Figure 2(a) — then measuring its waveform statistics and mapping
// it onto FPGA slices.
//
// This demonstrates the simulator API that the DH-TRNG netlist itself is
// built on (src/core/netlist.cpp).
#include <cstdio>

#include "core/ro.h"
#include "fpga/device.h"
#include "fpga/power.h"
#include "fpga/slice_packer.h"
#include "fpga/timing.h"
#include "sim/simulator.h"
#include "stats/correlation.h"
#include "support/bitstream.h"

int main() {
  using namespace dhtrng;
  const auto device = fpga::DeviceModel::artix7();

  // --- build the netlist --------------------------------------------------
  sim::Circuit circuit;
  const sim::NetId enable = circuit.add_net("enable");
  circuit.set_initial(enable, true);

  // 5-stage ring oscillator out of LUT inverters.
  const double element_delay = device.lut_delay_ps + 0.35 * device.net_delay_ps;
  const sim::NetId ring_out =
      core::build_ring_oscillator(circuit, "ro", 5, enable, element_delay);

  // 100 MHz sampling flip-flop (Figure 2(a): low-frequency clock samples
  // the high-frequency oscillation).
  const sim::NetId clk = circuit.add_net("clk");
  circuit.add_clock(clk, 10000.0);  // 10 ns period
  const sim::NetId q = circuit.add_net("q");
  const std::size_t sampler =
      circuit.add_dff(clk, ring_out, q, device.dff_timing());

  circuit.validate();

  // --- simulate -----------------------------------------------------------
  sim::SimConfig cfg;
  cfg.seed = 42;
  cfg.gate_jitter = device.gate_jitter;
  sim::Simulator sim(circuit, cfg);
  sim.record_dff(sampler);
  sim.run_until(20e6);  // 20 microseconds -> ~2000 samples

  const auto& samples = sim.samples(sampler);
  support::BitStream bits;
  for (std::uint8_t s : samples) bits.push_back(s != 0);

  const double ring_freq_ghz =
      static_cast<double>(sim.toggle_count(ring_out)) / 2.0 / sim.now() * 1e3;
  std::printf("simulated %.1f us: ring at %.0f MHz, %zu samples captured\n",
              sim.now() / 1e6, ring_freq_ghz * 1e3, bits.size());
  std::printf("events processed: %llu, metastable captures: %llu\n",
              static_cast<unsigned long long>(sim.events_processed()),
              static_cast<unsigned long long>(sim.metastable_samples()));
  std::printf("sampled-bit bias: %.2f%%, ACF(1): %+.3f\n",
              stats::bias_percent(bits),
              stats::autocorrelation(bits, 1)[0]);

  // --- map to the FPGA ----------------------------------------------------
  const auto report = fpga::SlicePacker{}.pack(circuit, "jitter-trng");
  std::printf("\nFPGA mapping:\n%s", report.to_string().c_str());

  const auto activity = fpga::activity_from_simulation(sim, 100.0, 1);
  const auto power = fpga::estimate_power(device, activity);
  std::printf("estimated power: %.3f W (static %.3f + PLL %.3f + logic %.4f)\n",
              power.total_w(), power.static_w, power.pll_w, power.logic_w);

  // Static timing: the ring is a cut loop, so the only register path here
  // is trivial — shown for the API; see tests/fpga/test_timing.cpp for the
  // DH-TRNG sampling-array path.
  const auto timing = fpga::analyze_timing(circuit, device);
  if (timing.critical.delay_ps > 0.0) {
    std::printf("%s", timing.to_string(circuit).c_str());
  } else {
    std::printf("no register-to-register path (the RO loop is an "
                "asynchronous source; STA cuts it)\n");
  }
  return 0;
}
