// The paper's analytical randomness results (Section 3.1, Eqs. 3-5),
// implemented directly so tests can check the simulated circuits against
// the theory (tests/core/test_theory.cpp, test_integration.cpp).
#pragma once

#include <cstddef>
#include <vector>

namespace dhtrng::core::theory {

/// Eq. (3): expected value of Q1 XOR Q2 for independent bits with expected
/// values mu1, mu2:  E = 1/2 - 2 (mu1 - 1/2)(mu2 - 1/2).
double xor_expected_value(double mu1, double mu2);

/// Eq. (4): expected value of the n-way XOR of independent bit pairs with
/// expected values mu1, mu2:
///   E_n = 1/2 (1 + ((1-2mu1)(1-2mu2))^(n/2)).
double xor_expected_value_n(double mu1, double mu2, std::size_t n);

/// Generic XOR-of-independent-bits bias composition (Piling-up): the
/// expected value of XOR_i b_i where E[b_i] = mu_i.
double xor_expected_value(const std::vector<double>& mus);

/// Parameters of one entropy unit for the randomness-coverage bound.
struct CoverageTerm {
  double jitter_probability;   ///< a   — probability a jitter event occurs
  double jitter_width_ps;      ///< w_i — width of the jitter region
  double ro_period_ps;         ///< T_ro_i
  double hold_capture_prob;    ///< tau — sub-threshold sampling probability
  double edge_width_ps;        ///< eps — transition-edge width
  double osc_frequency_ghz;    ///< f_i — oscillation frequency (1/ps units ok)
};

/// Eq. (5): randomness coverage of n XORed dynamic hybrid entropy units,
///   P_rand = 1 - prod_i (1 - 2 a w_i / T_ro_i) (1 - (tau + 2 eps f_i)).
double randomness_coverage(const std::vector<CoverageTerm>& units);

/// Min-entropy of a Bernoulli(p) bit: -log2(max(p, 1-p)).
double bernoulli_min_entropy(double p_one);

}  // namespace dhtrng::core::theory
