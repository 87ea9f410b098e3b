// Reference event engine: the simulator's original binary-heap scheduler,
// kept as an independent oracle for the production engine (src/sim).
//
// ReferenceSimulator runs the same (circuit, config, seed) triple through
// the same model — inertial runt filter, per-net causal ordering, Eq. 2
// flip-flop aperture, per-gate white + flicker + shared-supply noise drawn
// through the public noise::EdgeJitterSource/SharedSupplyNoise with the
// production seeding — but on its own machinery:
//
//  * a std::priority_queue with per-event allocation, cancelled events
//    parked in a dead-sequence list and skipped on pop;
//  * fanout and per-clock flip-flop lists built as vectors of vectors from
//    the Circuit, and gates evaluated through sim::evaluate_gate;
//  * a linear scan over the clock specs to regenerate clock edges.
//
// None of the production engine's sorted run, CSR netlist or truth tables
// is involved, so an applied-event stream that matches production event for
// event (tests/sim/test_golden_waveforms.cpp, test_differential_fuzz.cpp,
// tests/core/test_zoo_differential.cpp) checks the production engine, not
// a copy of it.  bench_sim_microbench times the two against each other.
#pragma once

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "noise/jitter.h"
#include "sim/circuit.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace dhtrng::sim {

class ReferenceSimulator {
 public:
  ReferenceSimulator(const Circuit& circuit, SimConfig config);
  // The gate noise sources point at shared_noise_.
  ReferenceSimulator(const ReferenceSimulator&) = delete;
  ReferenceSimulator& operator=(const ReferenceSimulator&) = delete;

  /// Advance simulated time to t_ps (events at exactly t_ps included).
  /// Throws BudgetExhaustedError past SimConfig::max_events, at the same
  /// event and with the same diagnostics as sim::Simulator.
  void run_until(double t_ps);

  bool net_value(NetId id) const { return value_[id] != 0; }
  std::uint64_t toggle_count(NetId id) const { return toggles_[id]; }
  std::uint64_t total_toggles() const;
  std::uint64_t events_processed() const { return events_processed_; }
  std::uint64_t runts_filtered() const { return runts_filtered_; }
  std::uint64_t metastable_samples() const { return metastable_samples_; }

  void record_dff(std::size_t dff_index) { dff_recorded_.at(dff_index) = 1; }
  const std::vector<std::uint8_t>& samples(std::size_t dff_index) const {
    return dff_samples_.at(dff_index);
  }

  void record_applied_events() { trace_applied_ = true; }
  const std::vector<SimEvent>& applied_events() const {
    return applied_events_;
  }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    NetId net;
    bool value;
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  void schedule(NetId net, bool value, double delay_from_now);
  void apply_net_change(NetId net, bool value);
  bool evaluate(std::size_t gate_index) const;
  double gate_delay_with_jitter(std::size_t gate_index);
  [[noreturn]] void throw_budget_exhausted();

  const Circuit& circuit_;
  SimConfig config_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t metastable_samples_ = 0;
  std::uint64_t runts_filtered_ = 0;

  std::vector<std::uint8_t> value_;
  std::vector<std::uint8_t> projected_;  ///< net value after pending events
  std::vector<double> sched_time_;       ///< last scheduled transition time
  std::vector<std::uint64_t> sched_seq_;  ///< its push sequence number
  std::vector<double> last_change_;
  std::vector<std::uint64_t> toggles_;
  std::vector<std::vector<std::size_t>> fanout_;    ///< gates per input net
  std::vector<std::vector<std::size_t>> dffs_by_clk_;

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::vector<std::uint64_t> dead_events_;

  noise::SharedSupplyNoise shared_noise_;
  std::vector<noise::EdgeJitterSource> gate_noise_;  // one per gate
  support::Xoshiro256 meta_rng_;                     // metastable resolution

  std::vector<std::vector<std::uint8_t>> dff_samples_;
  std::vector<std::uint8_t> dff_recorded_;

  bool trace_applied_ = false;
  std::vector<SimEvent> applied_events_;
};

/// Run `circuit` to `horizon_ps` on the production sim::Simulator and on
/// ReferenceSimulator under the same config, recording every flip-flop, and
/// compare what the two did: the applied-event streams event for event, then
/// every net's final value and toggle count, the event, runt and
/// metastable-sample counts and every flip-flop's samples.  Returns an empty
/// string when they agree, else a description of the first difference.
std::string compare_with_reference(const Circuit& circuit,
                                   const SimConfig& config,
                                   double horizon_ps);

}  // namespace dhtrng::sim
