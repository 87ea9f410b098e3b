// Event-driven timing simulator with stochastic gate delays.
//
// This engine is the substitute for the paper's physical FPGA fabric: each
// gate transition is perturbed by an EdgeJitterSource (white + flicker +
// shared-supply noise) and each flip-flop applies the Eq. 2 aperture model
// on sampling, so jitter- and metastability-based entropy arise from the
// same mechanisms the paper exploits, only with pseudo-random noise driving
// them (see DESIGN.md, substitution table).
//
// Delays are in picoseconds; the schedule is a strict total order on
// (time, seq) — nondecreasing time, insertion order on ties — so a given
// (circuit, config, seed) triple always reproduces the same waveforms.
//
// The pending events live in one contiguous (time, seq)-sorted vector
// (event_queue.h); gate evaluation goes through the contiguous CSR netlist
// view and its per-gate truth tables, built once at elaboration
// (flat_netlist.h).  Per-gate noise is drawn in noise::kNoiseBlock blocks.
//
// The historical binary-heap engine lives on as a test oracle,
// sim::ReferenceSimulator in tests/support/sim_reference.h: the golden,
// zoo and differential-fuzz tests require the two to apply the same events
// in the same order, and bench_sim_microbench times one against the other.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "noise/jitter.h"
#include "noise/pvt.h"
#include "sim/circuit.h"
#include "sim/event_queue.h"
#include "sim/flat_netlist.h"
#include "support/rng.h"

namespace dhtrng::sim {

struct SimConfig {
  std::uint64_t seed = 1;
  /// Base per-gate jitter at the nominal corner; the white component scales
  /// with sqrt(delay / 100ps) per gate so longer cells jitter more.
  noise::JitterParams gate_jitter{1.2, 0.5, 0.4};
  /// PVT scale factors (from noise::pvt_scaling via the device model).
  noise::PvtScaling scaling{1.0, 1.0, 1.0};
  /// Pulses narrower than this are swallowed (inertial delay model).
  double min_pulse_ps = 5.0;
  /// Hard stop against runaway zero-delay loops.
  std::uint64_t max_events = 500'000'000;
  /// Noise fidelity (see noise::NoiseMode).  Exact is the default and the
  /// only mode the golden-waveform digests apply to; Fast swaps the
  /// per-gate jitter for SIMD-batched pre-combined delay blocks — still
  /// deterministic per (seed, mode) and identical across dispatch tiers,
  /// but a different stream, intended for bulk generation and perf runs.
  noise::NoiseMode noise_mode = noise::NoiseMode::Exact;
};

/// Structured runaway-guard error: thrown when the event count exceeds
/// SimConfig::max_events.  Carries enough context to diagnose the loop —
/// how far simulated time got, how many events were processed, and which
/// net toggled most (in a zero-delay loop, the culprit).
class BudgetExhaustedError : public std::runtime_error {
 public:
  BudgetExhaustedError(double sim_time_ps, std::uint64_t events,
                       NetId hottest_net, std::uint64_t hottest_net_toggles,
                       const std::string& hottest_net_name);

  double sim_time_ps() const { return sim_time_ps_; }
  std::uint64_t events() const { return events_; }
  NetId hottest_net() const { return hottest_net_; }
  std::uint64_t hottest_net_toggles() const { return hottest_net_toggles_; }

 private:
  double sim_time_ps_;
  std::uint64_t events_;
  NetId hottest_net_;
  std::uint64_t hottest_net_toggles_;
};

class Simulator {
 public:
  Simulator(const Circuit& circuit, SimConfig config);

  /// Advance simulated time to t_ps (events at exactly t_ps included).
  void run_until(double t_ps);

  /// Current simulated time (ps).
  double now() const { return now_; }

  bool net_value(NetId id) const { return value_[id]; }
  double last_change_ps(NetId id) const { return last_change_[id]; }

  /// Start recording the sampled bit of a flip-flop at every clock edge.
  void record_dff(std::size_t dff_index);
  /// Recorded samples.  Once next_sample() is in use this holds only the
  /// samples of the current step: it drops each step's samples once read.
  const std::vector<std::uint8_t>& samples(std::size_t dff_index) const;
  /// Consume the next recorded sample of a flip-flop, first advancing
  /// simulated time in steps of `step_ps` until one exists.  Consumed
  /// samples are dropped, so a reader that runs for hours holds no more
  /// than the samples of one step.
  bool next_sample(std::size_t dff_index, double step_ps);

  /// Start recording rising-edge timestamps of a net (for period/jitter
  /// analysis of oscillator nodes).
  void record_edges(NetId net);
  const std::vector<double>& edge_times(NetId net) const;

  /// Start recording every applied event as (time, seq, net, value) — the
  /// observable the tests compare against sim::ReferenceSimulator.
  void record_applied_events() { trace_applied_ = true; }
  const std::vector<SimEvent>& applied_events() const {
    return applied_events_;
  }

  std::uint64_t toggle_count(NetId id) const { return toggles_[id]; }
  std::uint64_t total_toggles() const;
  std::uint64_t events_processed() const { return events_processed_; }
  /// Number of flip-flop samples that fell inside the metastability
  /// aperture (a health indicator the hybrid unit deliberately maximizes).
  std::uint64_t metastable_samples() const { return metastable_samples_; }
  std::uint64_t dff_sample_count(std::size_t dff_index) const {
    return sample_counts_[dff_index];
  }
  /// Pulses swallowed by the inertial (min_pulse) filter — a glitch-rate
  /// diagnostic for netlists with reconvergent paths.
  std::uint64_t runts_filtered() const { return runts_filtered_; }

 private:
  void schedule(NetId net, bool value, double delay_from_now);
  void apply_net_change(NetId net, bool value);
  double gate_delay_with_jitter(std::size_t gate_index);
  [[noreturn]] void throw_budget_exhausted();

  const Circuit& circuit_;
  SimConfig config_;
  FlatNetlist flat_;  ///< contiguous netlist view, built once at elaboration
  bool fast_noise_ = false;  ///< config_.noise_mode == Fast, hoisted
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t metastable_samples_ = 0;
  std::uint64_t runts_filtered_ = 0;

  /// Per-net scheduling state, merged into one record so the runt filter
  /// and push bookkeeping in schedule() touch a single cache line.
  struct NetSched {
    double time = -1.0;          ///< last scheduled transition time
    std::uint64_t seq = 0;       ///< its push sequence number
    std::uint8_t projected = 0;  ///< net value after pending events
  };

  std::vector<std::uint8_t> value_;  // current net values (dense, gate eval)
  std::vector<NetSched> sched_;
  std::vector<double> last_change_;
  std::vector<std::uint64_t> toggles_;

  // Pending events; the runt filter cancels by the (time, seq) key of a
  // net's latest scheduled event, which sched_ already tracks.
  SortedEventRun events_;

  noise::SharedSupplyNoise shared_noise_;
  std::vector<noise::EdgeJitterSource> gate_noise_;  // one per gate
  support::Xoshiro256 meta_rng_;                     // metastable resolution

  std::vector<std::vector<std::uint8_t>> dff_samples_;
  std::vector<std::size_t> dff_read_;  ///< next_sample() cursor per dff
  std::vector<std::uint8_t> dff_recorded_;
  std::vector<std::uint64_t> sample_counts_;

  std::vector<std::uint8_t> edge_recorded_;
  std::vector<std::vector<double>> edge_times_;

  bool trace_applied_ = false;
  std::vector<SimEvent> applied_events_;
};

}  // namespace dhtrng::sim
