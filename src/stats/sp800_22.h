// NIST SP 800-22 statistical test suite (all 15 tests), reimplemented from
// the specification with the standard STS parameters, used to reproduce the
// paper's Table 3.
//
// Conventions follow the NIST STS reference implementation:
//  * a test returns one or more p-values (sub-tests);
//  * a sequence passes a test at significance alpha = 0.01 if every
//    sub-test p-value is >= alpha;
//  * the multi-set suite report gives, per test, the uniformity
//    "P-value of the p-values" (chi-square over 10 bins) and the
//    pass proportion — the two columns of the paper's Table 3.
//
// Tests whose p-value column in the paper carries a * report the average
// over sub-tests; run_suite reproduces that convention.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "support/bitstream.h"

namespace dhtrng::stats::sp800_22 {

struct TestResult {
  std::string name;
  std::vector<double> p_values;  ///< one per sub-test
  bool applicable = true;        ///< random-excursions tests may not apply

  /// Representative p-value: the average over sub-tests (the paper's *
  /// convention; identical to the single p-value for simple tests).
  double p_value() const;
  /// Single-subtest: p >= alpha.  Multi-subtest: average p >= alpha and the
  /// failing-subtest count within the binomial 3-sigma band (see .cpp).
  bool pass(double alpha = 0.01) const;
};

using support::BitStream;

TestResult frequency(const BitStream& bits);
TestResult block_frequency(const BitStream& bits, std::size_t block_len = 128);
TestResult cumulative_sums(const BitStream& bits);  // forward + backward
TestResult runs(const BitStream& bits);
TestResult longest_run(const BitStream& bits);
TestResult rank(const BitStream& bits);
TestResult dft(const BitStream& bits);
TestResult non_overlapping_template(const BitStream& bits,
                                    std::size_t template_len = 9);
TestResult overlapping_template(const BitStream& bits,
                                std::size_t template_len = 9);
TestResult universal(const BitStream& bits);
TestResult approximate_entropy(const BitStream& bits,
                               std::size_t block_len = 10);
TestResult random_excursions(const BitStream& bits);
TestResult random_excursions_variant(const BitStream& bits);
TestResult serial(const BitStream& bits, std::size_t block_len = 16);
TestResult linear_complexity(const BitStream& bits,
                             std::size_t block_len = 500);

/// All 15 tests with the standard parameters, in the paper's Table 3 order.
std::vector<TestResult> run_all(const BitStream& bits);

/// Aperiodic templates of the given length (the non-overlapping template
/// test's template set; 148 templates for length 9), enumerated once per
/// length, then served from a process-wide table (thread-safe).  The
/// returned reference stays valid for the process lifetime.
const std::vector<std::vector<bool>>& aperiodic_templates_cached(
    std::size_t len);

/// Multi-set suite report (paper Table 3 format).
struct SuiteRow {
  std::string name;
  double p_value = 0.0;      ///< uniformity p-value (averaged over sub-tests)
  std::size_t passed = 0;    ///< sets passing the whole test
  std::size_t total = 0;     ///< applicable sets
};

/// `n_threads` parallelizes over the independent sets (the dominant cost
/// for the paper's 30 x 1 Mbit runs); the report is identical for any
/// thread count.  1 = serial, 0 = hardware concurrency.
std::vector<SuiteRow> run_suite(std::span<const BitStream> sets,
                                double alpha = 0.01,
                                std::size_t n_threads = 1);

}  // namespace dhtrng::stats::sp800_22
