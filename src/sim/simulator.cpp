#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "support/special_functions.h"

namespace dhtrng::sim {

namespace {
constexpr double kMinDelayPs = 0.1;
constexpr double kReferenceDelayPs = 100.0;

std::string budget_message(double sim_time_ps, std::uint64_t events,
                           std::uint64_t hottest_net_toggles,
                           const std::string& hottest_net_name) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "Simulator: event budget exhausted at t=%.1f ps after %llu "
                "events; hottest net '%s' (%llu toggles)",
                sim_time_ps, static_cast<unsigned long long>(events),
                hottest_net_name.c_str(),
                static_cast<unsigned long long>(hottest_net_toggles));
  return buf;
}
}  // namespace

BudgetExhaustedError::BudgetExhaustedError(
    double sim_time_ps, std::uint64_t events, NetId hottest_net,
    std::uint64_t hottest_net_toggles, const std::string& hottest_net_name)
    : std::runtime_error(budget_message(sim_time_ps, events,
                                        hottest_net_toggles,
                                        hottest_net_name)),
      sim_time_ps_(sim_time_ps),
      events_(events),
      hottest_net_(hottest_net),
      hottest_net_toggles_(hottest_net_toggles) {}

Simulator::Simulator(const Circuit& circuit, SimConfig config)
    : circuit_(circuit),
      config_(config),
      flat_(FlatNetlist::build(circuit)),
      value_(circuit.net_count(), 0),
      sched_(circuit.net_count()),
      last_change_(circuit.net_count(), -1e18),
      toggles_(circuit.net_count(), 0),
      shared_noise_(config.gate_jitter.correlated_sigma_ps,
                    config.seed ^ 0xabcdef1234567890ULL),
      meta_rng_(config.seed ^ 0x5bd1e995cafef00dULL),
      dff_samples_(circuit.dffs().size()),
      dff_read_(circuit.dffs().size(), 0),
      dff_recorded_(circuit.dffs().size(), 0),
      sample_counts_(circuit.dffs().size(), 0),
      edge_recorded_(circuit.net_count(), 0),
      edge_times_(circuit.net_count()) {
  circuit.validate();

  const auto& initial = circuit.initial_values();
  for (std::size_t n = 0; n < value_.size(); ++n) {
    value_[n] = initial[n] ? 1 : 0;
    sched_[n].projected = value_[n];
  }

  support::SplitMix64 seeder(config.seed);
  gate_noise_.reserve(circuit.gates().size());
  for (std::size_t g = 0; g < circuit.gates().size(); ++g) {
    // Longer cells accumulate more noise: white sigma ~ sqrt(delay).
    noise::JitterParams p = config.gate_jitter;
    p.white_sigma_ps *=
        std::sqrt(circuit.gates()[g].delay_ps / kReferenceDelayPs);
    gate_noise_.emplace_back(p, seeder.next(), &shared_noise_);
  }

  fast_noise_ = config.noise_mode == noise::NoiseMode::Fast;
  if (fast_noise_) {
    shared_noise_.set_mode(noise::NoiseMode::Fast);
    for (std::size_t g = 0; g < gate_noise_.size(); ++g) {
      // Complete delays are precomputed per block: nominal (PVT-scaled)
      // base plus white+flicker, clamped at consumption to the same floor
      // the exact path applies.
      gate_noise_[g].enable_fast_delay(
          flat_.gate_delay_ps[g] * config.scaling.delay, kMinDelayPs,
          config.scaling);
    }
  }

  // Kick-start: schedule first clock edges and settle gates whose output
  // disagrees with the initial net values (this is what makes inverter
  // rings begin to oscillate).
  for (const ClockSpec& c : circuit.clocks()) {
    schedule(c.net, true, std::max(c.offset_ps, kMinDelayPs));
  }
  for (std::size_t g = 0; g < circuit.gates().size(); ++g) {
    const bool out = flat_.evaluate(g, value_.data());
    const NetId q = flat_.gate_meta[g].output;
    if (out != (value_[q] != 0)) schedule(q, out, gate_delay_with_jitter(g));
  }
}

double Simulator::gate_delay_with_jitter(std::size_t gate_index) {
  if (fast_noise_) return gate_noise_[gate_index].next_delay_fast();
  const double nominal = flat_.gate_delay_ps[gate_index] * config_.scaling.delay;
  const double jitter =
      gate_noise_[gate_index].next_edge_jitter(config_.scaling);
  return std::max(nominal + jitter, kMinDelayPs);
}

void Simulator::schedule(NetId net, bool value, double delay_from_now) {
  double t = now_ + delay_from_now;
  NetSched& s = sched_[net];
  // Per-net causal ordering: a later-issued transition may not overtake an
  // earlier one (jitter could otherwise reorder them).
  if (t <= s.time) t = s.time + kMinDelayPs;

  // The edge value is true on about half the calls in no pattern the
  // branch predictor learns, so the cheap, predictable width test (true on
  // a few percent of calls) goes first; the operands have no side effects.
  const bool pending = s.time > now_;
  if (pending && t - s.time < config_.min_pulse_ps &&
      (s.projected != 0) != value && value == (value_[net] != 0)) {
    // Runt pulse: the pending transition would be undone before it could
    // propagate a full pulse width; swallow both (inertial delay).
    events_.cancel(s.time, s.seq);
    s.projected = value_[net];
    s.time = now_;
    ++runts_filtered_;
    return;
  }
  if ((s.projected != 0) == value) return;  // no change to project

  s.projected = value ? 1 : 0;
  s.time = t;
  s.seq = ++seq_;
  events_.push(t, seq_, net, value);
}

void Simulator::run_until(double t_ps) {
  SimEvent ev;
  while (events_.pop_if_due(t_ps, ev)) {
    if (++events_processed_ > config_.max_events) throw_budget_exhausted();
    now_ = ev.time;
    if (trace_applied_) applied_events_.push_back(ev);
    apply_net_change(ev.net, ev.value);
  }
  now_ = std::max(now_, t_ps);
}

void Simulator::throw_budget_exhausted() {
  NetId hottest = 0;
  for (NetId n = 1; n < static_cast<NetId>(toggles_.size()); ++n) {
    if (toggles_[n] > toggles_[hottest]) hottest = n;
  }
  const std::uint64_t hot_toggles = toggles_.empty() ? 0 : toggles_[hottest];
  throw BudgetExhaustedError(now_, events_processed_, hottest, hot_toggles,
                             toggles_.empty() ? std::string("<none>")
                                              : circuit_.net_name(hottest));
}

void Simulator::apply_net_change(NetId net, bool value) {
  if ((value_[net] != 0) == value) return;
  value_[net] = value ? 1 : 0;
  last_change_[net] = now_;
  ++toggles_[net];
  // Predictable per-net tests come before the unpredictable edge value.
  if (edge_recorded_[net] && value) edge_times_[net].push_back(now_);

  const FlatNetlist::NetMeta& m = flat_.net_meta[net];

  // Clock source nets regenerate their own next edge.
  if (m.clock >= 0) {
    const ClockSpec& c = circuit_.clocks()[static_cast<std::size_t>(m.clock)];
    const double high = c.period_ps * c.duty;
    schedule(net, !value, value ? high : c.period_ps - high);
  }

  // Rising clock edge: sample every flip-flop on this clock.
  if (m.dff_begin != m.dff_end && value) {
    for (std::uint32_t d = m.dff_begin; d < m.dff_end; ++d) {
      const std::uint32_t f = flat_.dff_by_clk[d];
      const Dff& ff = circuit_.dffs()[f];
      const bool d_now = value_[ff.d] != 0;
      const double delta = now_ - last_change_[ff.d];
      const double sigma = ff.timing.aperture_sigma_ps *
                           std::max(config_.scaling.delay, 1e-9);
      bool captured = d_now;
      double extra = 0.0;
      if (delta < 4.0 * sigma) {
        // Eq. 2: the probability of capturing the post-transition value is
        // the normal CDF of the (scaled) distance to the sampling edge.
        const double p_new = support::normal_cdf(delta / sigma);
        captured = meta_rng_.bernoulli(p_new) ? d_now : !d_now;
        extra = meta_rng_.exponential(ff.timing.resolution_mean_ps);
        ++metastable_samples_;
      }
      if (dff_recorded_[f]) {
        dff_samples_[f].push_back(captured ? 1 : 0);
      }
      ++sample_counts_[f];
      schedule(ff.q, captured,
               ff.timing.clk_to_q_ps * config_.scaling.delay + extra);
    }
  }

  // CSR fanout, truth-table gate evaluation.
  for (std::uint32_t o = m.fanout_begin; o < m.fanout_end; ++o) {
    const std::uint32_t g = flat_.fanout[o];
    schedule(flat_.gate_meta[g].output, flat_.evaluate(g, value_.data()),
             gate_delay_with_jitter(g));
  }
}

void Simulator::record_dff(std::size_t dff_index) {
  dff_recorded_.at(dff_index) = 1;
}

void Simulator::record_edges(NetId net) { edge_recorded_.at(net) = 1; }

const std::vector<double>& Simulator::edge_times(NetId net) const {
  return edge_times_.at(net);
}

const std::vector<std::uint8_t>& Simulator::samples(
    std::size_t dff_index) const {
  return dff_samples_.at(dff_index);
}

bool Simulator::next_sample(std::size_t dff_index, double step_ps) {
  std::vector<std::uint8_t>& s = dff_samples_.at(dff_index);
  std::size_t& read = dff_read_[dff_index];
  while (read == s.size()) run_until(now_ + step_ps);
  const bool bit = s[read++] != 0;
  if (read == s.size()) {
    s.clear();
    read = 0;
  }
  return bit;
}

std::uint64_t Simulator::total_toggles() const {
  std::uint64_t total = 0;
  for (std::uint64_t t : toggles_) total += t;
  return total;
}

}  // namespace dhtrng::sim
