// Small descriptive-statistics helpers shared by the test suites and the
// experiment harnesses.
#pragma once

#include <cstddef>
#include <span>

namespace dhtrng::support {

double mean(std::span<const double> xs);
double variance(std::span<const double> xs);  // population variance

/// Chi-square uniformity p-value of a set of p-values over 10 equal bins —
/// the "P-value of the P-values" the NIST STS final report prints per test.
double p_value_uniformity(std::span<const double> p_values);

/// Exact-binomial minimum pass count: the smallest k such that observing
/// fewer than k passes out of `sample_count` sequences is implausible
/// (probability < 1 - confidence) for a healthy generator with
/// per-sequence pass probability `pass_probability`.  Valid at any sample
/// size, unlike the Gaussian band.
std::size_t min_pass_count(std::size_t sample_count,
                           double pass_probability = 0.99,
                           double confidence = 0.999);

}  // namespace dhtrng::support
