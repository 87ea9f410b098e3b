// Model-validation experiment: the gate-level engine's jitter statistics
// against the analytic noise model (paper Eq. 1 and the white-FM
// sqrt-accumulation law the phase-domain backends assume).
//
// For rings of order 3..11 it reports mean period, per-period jitter and
// the accumulated-jitter scaling exponent (0.5 = white FM); DESIGN.md's
// backend-equivalence argument rests on these matching.
#include <cstdio>

#include "bench_util.h"
#include "core/jitter_analysis.h"
#include "core/ro.h"
#include "sim/simulator.h"

int main(int argc, char** argv) {
  using namespace dhtrng;
  bench::accept_flags(argc, argv, {"us"});
  const double sim_us = static_cast<double>(bench::flag(argc, argv, "us", 4));

  bench::header("Model validation - gate-level oscillator jitter",
                "noise model behind paper Eq. 1 (DESIGN.md sec. 2)");
  const auto device = fpga::DeviceModel::artix7();
  std::printf("device %s, per-gate white sigma %.2f ps, %g us per ring\n\n",
              device.name.c_str(), device.gate_jitter.white_sigma_ps, sim_us);

  std::printf("%6s %12s %14s %16s %10s\n", "stages", "period(ps)",
              "jitter(ps)", "jitter/period", "exponent");
  for (int stages : {3, 5, 7, 9, 11}) {
    sim::Circuit c;
    const sim::NetId en = c.add_net("en");
    c.set_initial(en, true);
    const double element =
        device.lut_delay_ps + 0.35 * device.net_delay_ps;
    const sim::NetId out =
        core::build_ring_oscillator(c, "ro", stages, en, element);
    sim::SimConfig cfg;
    cfg.seed = 99;
    cfg.gate_jitter = device.gate_jitter;
    sim::Simulator sim(c, cfg);
    sim.record_edges(out);
    sim.run_until(sim_us * 1e6);
    const auto a = core::analyze_edge_times(sim.edge_times(out));
    std::printf("%6d %12.1f %14.3f %15.2e %10.2f\n", stages,
                a.mean_period_ps, a.period_jitter_ps,
                a.period_jitter_ps / a.mean_period_ps, a.scaling_exponent);
  }
  bench::note("expect period = 2*N*element, jitter growing with sqrt(N) per "
              "period, exponent ~0.5 (white FM; flicker pushes it up)");
  return 0;
}
