// SP 800-90B sections 6.3.1-6.3.3: Most Common Value, Collision and Markov
// estimators (binary alphabet), plus the suite runners.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "stats/kernels.h"
#include "stats/scores.h"
#include "stats/sp800_90b.h"

namespace dhtrng::stats::scores {

double mcv_p_max(std::uint64_t n_bits, std::uint64_t ones_bits) {
  // Below two samples the confidence-interval width divides by n - 1 = 0
  // and the result went NaN; report the no-information bound instead
  // (p_max = 1, zero extractable entropy), like markov_p_max does.
  if (n_bits < 2) return 1.0;
  const double n = static_cast<double>(n_bits);
  const double ones = static_cast<double>(ones_bits);
  return p_upper_99(std::max(ones, n - ones) / n, n);
}

double p_upper_99(double p_hat, double n) {
  return std::min(1.0,
                  p_hat + kZ99 * std::sqrt(p_hat * (1.0 - p_hat) / (n - 1.0)));
}

double markov_p_max(std::uint64_t n, std::uint64_t ones_bits,
                    const kernels::TransitionCounts& tc) {
  if (n < 2) return 1.0;
  // First-order transition probabilities from the integer transition
  // counts, so every double below — and the log-space DP it feeds — is
  // exact.
  const double ones = static_cast<double>(ones_bits);
  const double nd = static_cast<double>(n);
  const std::array<double, 2> p_init = {1.0 - ones / nd, ones / nd};
  std::array<std::array<double, 2>, 2> t{};
  for (std::size_t a = 0; a < 2; ++a) {
    const double row =
        static_cast<double>(tc[a][0]) + static_cast<double>(tc[a][1]);
    for (std::size_t b = 0; b < 2; ++b) {
      t[a][b] = row > 0.0 ? static_cast<double>(tc[a][b]) / row : 0.5;
    }
  }
  // Most likely 128-step path (dynamic programming in log space).
  constexpr int kSteps = 128;
  std::array<double, 2> logp = {
      p_init[0] > 0 ? std::log2(p_init[0]) : -1e300,
      p_init[1] > 0 ? std::log2(p_init[1]) : -1e300};
  for (int step = 1; step < kSteps; ++step) {
    std::array<double, 2> next = {-1e300, -1e300};
    for (std::size_t a = 0; a < 2; ++a) {
      for (std::size_t b = 0; b < 2; ++b) {
        if (t[a][b] <= 0.0) continue;
        next[b] = std::max(next[b], logp[a] + std::log2(t[a][b]));
      }
    }
    logp = next;
  }
  return std::pow(2.0, std::max(logp[0], logp[1]) / kSteps);
}

MinEntropy min_entropy(double p_max) {
  MinEntropy m;
  m.p_max = std::clamp(p_max, 1e-12, 1.0);
  // 0 - log2, not -log2: at p_max = 1 this is +0, where -log2 gives -0
  // (which renders as "-0"); every other value is the same.
  m.h_min = std::min(0.0 - std::log2(m.p_max), 1.0);
  return m;
}

}  // namespace dhtrng::stats::scores

namespace dhtrng::stats::sp800_90b {

using scores::kZ99;

namespace {

EstimatorResult make_result(std::string name, double p_max) {
  const scores::MinEntropy m = scores::min_entropy(p_max);
  EstimatorResult r;
  r.name = std::move(name);
  r.p_max = m.p_max;
  r.h_min = m.h_min;
  return r;
}

}  // namespace

EstimatorResult mcv(const BitStream& bits) {
  return make_result("MCV", scores::mcv_p_max(bits.size(), bits.count_ones()));
}

EstimatorResult collision(const BitStream& bits) {
  // Scan for repeated values: in a binary stream a collision occurs after 2
  // samples (equal pair) or 3 samples (otherwise), so the mean collision
  // time is E[T] = 2 + 2p(1-p); inverting the lower confidence bound of the
  // sample mean gives the binary closed form of the 6.3.2 estimator.
  //
  // This loop stays bit at a time: the variance accumulation below walks
  // the collision-time sequence (a data-dependent mix of 2s and 3s) in
  // order, so any word-level restructuring that changed the sequence — or
  // the order of the floating-point sums over it — would change the result.
  const std::size_t n = bits.size();
  std::vector<double> times;
  std::size_t i = 0;
  while (i + 1 < n) {
    if (bits[i] == bits[i + 1]) {
      times.push_back(2.0);
      i += 2;
    } else if (i + 2 < n) {
      times.push_back(3.0);
      i += 3;
    } else {
      break;
    }
  }
  if (times.size() < 2) return make_result("Collision", 1.0);
  double mean = 0.0;
  for (double t : times) mean += t;
  mean /= static_cast<double>(times.size());
  double var = 0.0;
  for (double t : times) var += (t - mean) * (t - mean);
  var /= static_cast<double>(times.size()) - 1.0;
  const double x_lo =
      mean - kZ99 * std::sqrt(var / static_cast<double>(times.size()));
  // E[T] = 2 + 2 p (1-p)  =>  p(1-p) = (x_lo - 2) / 2.
  const double pq = std::clamp((x_lo - 2.0) / 2.0, 0.0, 0.25);
  const double p = 0.5 + std::sqrt(0.25 - pq);
  return make_result("Collision", p);
}

EstimatorResult markov(const BitStream& bits) {
  const std::size_t n = bits.size();
  if (n < 2) return make_result("Markov", 1.0);
  return make_result("Markov",
                     scores::markov_p_max(n, bits.count_ones(),
                                          kernels::transition_counts(
                                              bits, 0, n - 1)));
}

std::vector<EstimatorResult> run_all(const BitStream& bits) {
  return {mcv(bits),      collision(bits), markov(bits), compression(bits),
          t_tuple(bits),  lrs(bits),       multi_mcw(bits), lag(bits),
          multi_mmc(bits), lz78y(bits)};
}

double overall_min_entropy(const BitStream& bits) {
  double h = 1.0;
  for (const EstimatorResult& r : run_all(bits)) h = std::min(h, r.h_min);
  return h;
}

double iid_min_entropy(const BitStream& bits) { return mcv(bits).h_min; }

double predictor_p_max(std::size_t correct, std::size_t total,
                       std::size_t longest_run) {
  if (total == 0) return 1.0;
  const double n = static_cast<double>(total);
  const double p_hat = static_cast<double>(correct) / n;
  const double p_global =
      std::min(1.0, p_hat + kZ99 * std::sqrt(p_hat * (1.0 - p_hat) / n));
  // Local estimate: largest p such that a run of `longest_run + 1` correct
  // predictions is still plausible (probability of no such run >= 1%).
  const double r = static_cast<double>(longest_run) + 1.0;
  const auto no_run_log_prob = [&](double p) {
    // Feller's recurrence root: x solves 1 - x + q p^r x^(r+1) = 0.
    const double q = 1.0 - p;
    double x = 1.0;
    for (int it = 0; it < 30; ++it) x = 1.0 + q * std::pow(p, r) * std::pow(x, r + 1.0);
    // P(no run of length r in n trials) ~ (1 - p x)/((r + 1 - r x) q) x^-(n+1)
    const double numerator = 1.0 - p * x;
    const double denominator = (r + 1.0 - r * x) * q;
    if (numerator <= 0.0 || denominator <= 0.0) return -1e300;
    return std::log(numerator / denominator) - (n + 1.0) * std::log(x);
  };
  // Binary search the p with P(no run) = alpha = 0.99.
  const double log_alpha = std::log(0.99);
  double lo = 1e-6, hi = 1.0 - 1e-9;
  for (int it = 0; it < 60; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (no_run_log_prob(mid) > log_alpha) {
      lo = mid;  // runs still unlikely: p can be larger
    } else {
      hi = mid;
    }
  }
  const double p_local = lo;
  return std::max(p_global, p_local);
}

}  // namespace dhtrng::stats::sp800_90b
