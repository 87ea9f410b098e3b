#include "support/sim_reference.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "support/special_functions.h"

namespace dhtrng::sim {

namespace {
constexpr double kMinDelayPs = 0.1;
constexpr double kReferenceDelayPs = 100.0;
}  // namespace

ReferenceSimulator::ReferenceSimulator(const Circuit& circuit, SimConfig config)
    : circuit_(circuit),
      config_(config),
      value_(circuit.net_count(), 0),
      projected_(circuit.net_count(), 0),
      sched_time_(circuit.net_count(), -1.0),
      sched_seq_(circuit.net_count(), 0),
      last_change_(circuit.net_count(), -1e18),
      toggles_(circuit.net_count(), 0),
      fanout_(circuit.net_count()),
      dffs_by_clk_(circuit.net_count()),
      shared_noise_(config.gate_jitter.correlated_sigma_ps,
                    config.seed ^ 0xabcdef1234567890ULL),
      meta_rng_(config.seed ^ 0x5bd1e995cafef00dULL),
      dff_samples_(circuit.dffs().size()),
      dff_recorded_(circuit.dffs().size(), 0) {
  circuit.validate();

  const auto& initial = circuit.initial_values();
  for (std::size_t n = 0; n < value_.size(); ++n) {
    value_[n] = initial[n] ? 1 : 0;
    projected_[n] = value_[n];
  }
  // One fanout entry per (gate, input position), duplicates included: the
  // noise draw order depends on it.
  for (std::size_t g = 0; g < circuit.gates().size(); ++g) {
    for (NetId in : circuit.gates()[g].inputs) fanout_[in].push_back(g);
  }
  for (std::size_t d = 0; d < circuit.dffs().size(); ++d) {
    dffs_by_clk_[circuit.dffs()[d].clk].push_back(d);
  }

  const bool fast = config.noise_mode == noise::NoiseMode::Fast;
  if (fast) shared_noise_.set_mode(noise::NoiseMode::Fast);
  support::SplitMix64 seeder(config.seed);
  gate_noise_.reserve(circuit.gates().size());
  for (std::size_t g = 0; g < circuit.gates().size(); ++g) {
    const double delay_ps = circuit.gates()[g].delay_ps;
    noise::JitterParams p = config.gate_jitter;
    p.white_sigma_ps *= std::sqrt(delay_ps / kReferenceDelayPs);
    gate_noise_.emplace_back(p, seeder.next(), &shared_noise_);
    if (fast) {
      gate_noise_.back().enable_fast_delay(delay_ps * config.scaling.delay,
                                           kMinDelayPs, config.scaling);
    }
  }

  for (const ClockSpec& c : circuit.clocks()) {
    schedule(c.net, true, std::max(c.offset_ps, kMinDelayPs));
  }
  for (std::size_t g = 0; g < circuit.gates().size(); ++g) {
    const bool out = evaluate(g);
    const NetId q = circuit.gates()[g].output;
    if (out != (value_[q] != 0)) schedule(q, out, gate_delay_with_jitter(g));
  }
}

bool ReferenceSimulator::evaluate(std::size_t gate_index) const {
  const Gate& gate = circuit_.gates()[gate_index];
  std::vector<bool> ins(gate.inputs.size());
  for (std::size_t i = 0; i < gate.inputs.size(); ++i) {
    ins[i] = value_[gate.inputs[i]] != 0;
  }
  return evaluate_gate(gate.kind, ins);
}

double ReferenceSimulator::gate_delay_with_jitter(std::size_t gate_index) {
  if (config_.noise_mode == noise::NoiseMode::Fast) {
    return gate_noise_[gate_index].next_delay_fast();
  }
  const double nominal =
      circuit_.gates()[gate_index].delay_ps * config_.scaling.delay;
  const double jitter =
      gate_noise_[gate_index].next_edge_jitter(config_.scaling);
  return std::max(nominal + jitter, kMinDelayPs);
}

void ReferenceSimulator::schedule(NetId net, bool value,
                                  double delay_from_now) {
  double t = now_ + delay_from_now;
  if (t <= sched_time_[net]) t = sched_time_[net] + kMinDelayPs;

  const bool pending = sched_time_[net] > now_;
  if (pending && (projected_[net] != 0) != value &&
      value == (value_[net] != 0) &&
      t - sched_time_[net] < config_.min_pulse_ps) {
    dead_events_.push_back(sched_seq_[net]);
    projected_[net] = value_[net];
    sched_time_[net] = now_;
    ++runts_filtered_;
    return;
  }
  if ((projected_[net] != 0) == value) return;

  projected_[net] = value ? 1 : 0;
  sched_time_[net] = t;
  sched_seq_[net] = ++seq_;
  queue_.push(Event{t, seq_, net, value});
}

void ReferenceSimulator::run_until(double t_ps) {
  while (!queue_.empty() && queue_.top().time <= t_ps) {
    const Event ev = queue_.top();
    queue_.pop();
    if (!dead_events_.empty()) {
      const auto it =
          std::find(dead_events_.begin(), dead_events_.end(), ev.seq);
      if (it != dead_events_.end()) {
        dead_events_.erase(it);
        continue;
      }
    }
    if (++events_processed_ > config_.max_events) throw_budget_exhausted();
    now_ = ev.time;
    if (trace_applied_) {
      applied_events_.push_back(SimEvent{ev.time, ev.seq, ev.net, ev.value});
    }
    apply_net_change(ev.net, ev.value);
  }
  now_ = std::max(now_, t_ps);
}

void ReferenceSimulator::throw_budget_exhausted() {
  NetId hottest = 0;
  for (NetId n = 1; n < static_cast<NetId>(toggles_.size()); ++n) {
    if (toggles_[n] > toggles_[hottest]) hottest = n;
  }
  const std::uint64_t hot_toggles = toggles_.empty() ? 0 : toggles_[hottest];
  throw BudgetExhaustedError(now_, events_processed_, hottest, hot_toggles,
                             toggles_.empty() ? std::string("<none>")
                                              : circuit_.net_name(hottest));
}

void ReferenceSimulator::apply_net_change(NetId net, bool value) {
  if ((value_[net] != 0) == value) return;
  value_[net] = value ? 1 : 0;
  last_change_[net] = now_;
  ++toggles_[net];

  for (const ClockSpec& c : circuit_.clocks()) {
    if (c.net == net) {
      const double high = c.period_ps * c.duty;
      schedule(net, !value, value ? high : c.period_ps - high);
      break;
    }
  }

  if (value) {
    for (std::size_t f : dffs_by_clk_[net]) {
      const Dff& ff = circuit_.dffs()[f];
      const bool d_now = value_[ff.d] != 0;
      const double delta = now_ - last_change_[ff.d];
      const double sigma = ff.timing.aperture_sigma_ps *
                           std::max(config_.scaling.delay, 1e-9);
      bool captured = d_now;
      double extra = 0.0;
      if (delta < 4.0 * sigma) {
        const double p_new = support::normal_cdf(delta / sigma);
        captured = meta_rng_.bernoulli(p_new) ? d_now : !d_now;
        extra = meta_rng_.exponential(ff.timing.resolution_mean_ps);
        ++metastable_samples_;
      }
      if (dff_recorded_[f]) dff_samples_[f].push_back(captured ? 1 : 0);
      schedule(ff.q, captured,
               ff.timing.clk_to_q_ps * config_.scaling.delay + extra);
    }
  }

  for (std::size_t g : fanout_[net]) {
    schedule(circuit_.gates()[g].output, evaluate(g),
             gate_delay_with_jitter(g));
  }
}

std::uint64_t ReferenceSimulator::total_toggles() const {
  std::uint64_t total = 0;
  for (std::uint64_t t : toggles_) total += t;
  return total;
}

namespace {

std::ostream& operator<<(std::ostream& os, const SimEvent& e) {
  return os << "(t=" << e.time << ", seq=" << e.seq << ", net=" << e.net
            << ", v=" << e.value << ")";
}

}  // namespace

std::string compare_with_reference(const Circuit& circuit,
                                   const SimConfig& config,
                                   double horizon_ps) {
  Simulator prod(circuit, config);
  ReferenceSimulator ref(circuit, config);
  prod.record_applied_events();
  ref.record_applied_events();
  for (std::size_t f = 0; f < circuit.dffs().size(); ++f) {
    prod.record_dff(f);
    ref.record_dff(f);
  }
  prod.run_until(horizon_ps);
  ref.run_until(horizon_ps);

  std::ostringstream diff;
  const auto& pe = prod.applied_events();
  const auto& re = ref.applied_events();
  for (std::size_t i = 0; i < std::min(pe.size(), re.size()); ++i) {
    if (!(pe[i] == re[i])) {
      diff << "event " << i << ": production " << pe[i] << " vs reference "
           << re[i];
      return diff.str();
    }
  }
  if (pe.size() != re.size()) {
    diff << "production applied " << pe.size() << " events, reference "
         << re.size();
    return diff.str();
  }
  for (NetId n = 0; n < static_cast<NetId>(circuit.net_count()); ++n) {
    if (prod.net_value(n) != ref.net_value(n) ||
        prod.toggle_count(n) != ref.toggle_count(n)) {
      diff << "net " << n << " (" << circuit.net_name(n)
           << "): production value/toggles " << prod.net_value(n) << '/'
           << prod.toggle_count(n) << " vs reference " << ref.net_value(n)
           << '/' << ref.toggle_count(n);
      return diff.str();
    }
  }
  if (prod.events_processed() != ref.events_processed() ||
      prod.runts_filtered() != ref.runts_filtered() ||
      prod.metastable_samples() != ref.metastable_samples()) {
    diff << "events/runts/metastable: production " << prod.events_processed()
         << '/' << prod.runts_filtered() << '/' << prod.metastable_samples()
         << " vs reference " << ref.events_processed() << '/'
         << ref.runts_filtered() << '/' << ref.metastable_samples();
    return diff.str();
  }
  for (std::size_t f = 0; f < circuit.dffs().size(); ++f) {
    if (prod.samples(f) != ref.samples(f)) {
      diff << "dff " << f << ": sample streams differ";
      return diff.str();
    }
  }
  return {};
}

}  // namespace dhtrng::sim
