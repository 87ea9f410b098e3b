#include "support/theory.h"

#include <algorithm>
#include <cmath>

namespace dhtrng::core::theory {

double xor_expected_value(double mu1, double mu2) {
  return 0.5 - 2.0 * (mu1 - 0.5) * (mu2 - 0.5);
}

double xor_expected_value_n(double mu1, double mu2, std::size_t n) {
  const double prod = (1.0 - 2.0 * mu1) * (1.0 - 2.0 * mu2);
  return 0.5 * (1.0 + std::pow(prod, static_cast<double>(n) / 2.0));
}

double xor_expected_value(const std::vector<double>& mus) {
  // Piling-up lemma: E[XOR] = 1/2 - 1/2 * prod(1 - 2 mu_i)... with sign
  // convention E = 1/2 (1 - prod(1 - 2 mu_i)).
  double prod = 1.0;
  for (double mu : mus) prod *= (1.0 - 2.0 * mu);
  return 0.5 * (1.0 - prod);
}

double randomness_coverage(const std::vector<CoverageTerm>& units) {
  double prod = 1.0;
  for (const CoverageTerm& u : units) {
    const double jitter_term =
        1.0 - 2.0 * u.jitter_probability * u.jitter_width_ps / u.ro_period_ps;
    const double meta_term =
        1.0 - (u.hold_capture_prob +
               2.0 * u.edge_width_ps * 1e-3 * u.osc_frequency_ghz);
    prod *= std::clamp(jitter_term, 0.0, 1.0) * std::clamp(meta_term, 0.0, 1.0);
  }
  return 1.0 - prod;
}

double bernoulli_min_entropy(double p_one) {
  const double p = std::max(p_one, 1.0 - p_one);
  return -std::log2(std::min(std::max(p, 1e-12), 1.0));
}

}  // namespace dhtrng::core::theory
