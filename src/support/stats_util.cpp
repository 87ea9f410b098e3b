#include "support/stats_util.h"

#include <algorithm>
#include <cmath>

#include "support/special_functions.h"

namespace dhtrng::support {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double p_value_uniformity(std::span<const double> p_values) {
  if (p_values.empty()) return 0.0;
  constexpr int kBins = 10;
  int counts[kBins] = {};
  for (double p : p_values) {
    int bin = static_cast<int>(p * kBins);
    bin = std::clamp(bin, 0, kBins - 1);
    ++counts[bin];
  }
  const double expected = static_cast<double>(p_values.size()) / kBins;
  double chi2 = 0.0;
  for (int c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  return igamc((kBins - 1) / 2.0, chi2 / 2.0);
}

std::size_t min_pass_count(std::size_t sample_count, double pass_probability,
                           double confidence) {
  if (sample_count == 0) return 0;
  // Walk the binomial CDF from 0 passes upward; the threshold is the first
  // k whose lower tail P(X < k) exceeds 1 - confidence.
  const double q = 1.0 - pass_probability;
  const double alpha = 1.0 - confidence;
  double tail = 0.0;
  // Log-space pmf walk: P(X = 0) = q^n underflows a double for large n.
  double log_pmf = static_cast<double>(sample_count) * std::log(q);
  const double log_ratio = std::log(pass_probability) - std::log(q);
  for (std::size_t k = 0; k <= sample_count; ++k) {
    tail += std::exp(log_pmf);
    if (tail > alpha) return k;
    // P(X = k+1) from P(X = k).
    log_pmf += std::log(static_cast<double>(sample_count - k) /
                        static_cast<double>(k + 1)) +
               log_ratio;
  }
  return sample_count;
}

}  // namespace dhtrng::support
