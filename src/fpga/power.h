// First-order FPGA power model.
//
// Measured TRNG power on real boards (Table 6) is dominated by the clock
// generator (PLL/MMCM running at hundreds of MHz) and device static power,
// with ring-oscillator switching a few mW on top.  The model therefore has
// four terms:
//
//   P = P_static
//     + k_pll * f_clk                          (clock manager)
//     + C_clk * V^2 * f_clk * n_ff             (clock tree into the FFs)
//     + C_node * V^2 * sum_i toggle_rate_i     (logic & ring switching)
//
// Toggle rates come either from an event-driven simulation (exact counts /
// simulated time) or from an analytic activity estimate supplied by the
// TRNG model (ring frequencies are known).  Constants live in DeviceModel
// and are calibrated against the paper's measured totals; EXPERIMENTS.md
// marks every power figure as model-derived.
#pragma once

#include "fpga/device.h"
#include "sim/simulator.h"

namespace dhtrng::fpga {

struct ActivityEstimate {
  double clock_mhz = 0.0;          ///< sampling clock frequency
  std::size_t flip_flops = 0;      ///< clock loads
  double logic_toggle_ghz = 0.0;   ///< sum of all net toggle rates (GHz)
};

struct PowerBreakdown {
  double static_w = 0.0;
  double pll_w = 0.0;
  double clock_tree_w = 0.0;
  double logic_w = 0.0;
  double total_w() const { return static_w + pll_w + clock_tree_w + logic_w; }
};

/// Power at a given operating condition (voltage scales the dynamic terms
/// quadratically and leakage ~exponentially-ish first order linearly).
PowerBreakdown estimate_power(const DeviceModel& device,
                              const ActivityEstimate& activity,
                              const noise::PvtCondition& pvt =
                                  noise::PvtCondition::nominal());

/// Exact activity from an event-driven simulation run: total toggle counts
/// divided by simulated time, for feeding the power model a simulated
/// netlist's measured switching instead of an analytic estimate (see
/// examples/custom_circuit.cpp).  The TRNG backends report their own
/// analytic TrngSource::activity().
ActivityEstimate activity_from_simulation(const sim::Simulator& simulator,
                                          double clock_mhz,
                                          std::size_t flip_flops);

}  // namespace dhtrng::fpga
