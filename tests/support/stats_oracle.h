// Bit-at-a-time oracle for the statistical kernels (src/stats/kernels.h).
//
// Every function here has the signature of the kernel with the same name
// and computes the same quantity the way the specifications describe it:
// one bit at a time, with tables keyed by the MSB-first block value.  The
// kernels must agree with it exactly — integers and doubles alike, since
// they replay the same floating-point operation sequence — so a kernel
// that drifts by one count or one ulp is a bug, not noise.
//
// kernel_cases() pairs each kernel with its oracle for the equality tests
// (test_engine_equivalence.cpp, test_engine_differential.cpp) and the
// speed comparison in bench_stats_microbench.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "stats/kernels.h"

namespace dhtrng::stats::oracle {

using kernels::BitStream;

// Shared by several suites.
kernels::TransitionCounts transition_counts(const BitStream& bits,
                                            std::size_t begin,
                                            std::size_t pairs);
kernels::RunHistogram run_histogram(const BitStream& bits, std::size_t len);
std::size_t longest_run(const BitStream& bits, std::size_t len);
std::uint64_t nibble_square_sum(const BitStream& bits, std::size_t nibbles);
kernels::Log2DistanceSums log2_distance_sums(const BitStream& bits,
                                             std::size_t block_bits,
                                             std::size_t init,
                                             std::size_t test);

// SP 800-22.
long long cusum_peak(const BitStream& bits, bool forward);
std::size_t runs_count(const BitStream& bits);
std::vector<std::size_t> block_longest_ones(const BitStream& bits,
                                            std::size_t m);
kernels::RankCounts rank_counts(const BitStream& bits);
std::size_t dft_below_threshold(const std::vector<double>& x,
                                double threshold);
std::vector<std::array<std::size_t, kernels::kTemplateBlocks>>
non_overlapping_counts(const BitStream& bits, std::size_t template_len);
std::vector<std::size_t> overlapping_block_matches(const BitStream& bits,
                                                   std::size_t block_len,
                                                   std::size_t template_len);
double pattern_square_sum(const BitStream& bits, std::size_t m);
double pattern_entropy_sum(const BitStream& bits, std::size_t m);
kernels::WalkVisits walk_visits(const BitStream& bits);
std::vector<std::size_t> block_linear_complexities(const BitStream& bits,
                                                   std::size_t m);

// SP 800-90B.
kernels::PredictionScore multi_mcw_score(const BitStream& bits);
kernels::PredictionScore lag_score(const BitStream& bits);
double t_tuple_p_hat(const BitStream& bits);
double lrs_p_hat(const BitStream& bits);
kernels::TupleStats tuple_stats(const BitStream& bits, std::size_t len);

// AIS-31.
bool blocks_distinct(const BitStream& bits, std::size_t blocks,
                     std::size_t block_bits);
double coron_g_sum(const BitStream& bits, std::size_t init, std::size_t test,
                   const std::vector<double>& g);

/// Textbook Berlekamp-Massey over GF(2): the linear complexity of bits
/// [begin, begin + len), one coefficient per byte.
std::size_t linear_complexity(const BitStream& bits, std::size_t begin,
                              std::size_t len);

/// One kernel and its oracle with the parameters of the suite that calls
/// it, each returning its result flattened to 64-bit words (doubles by bit
/// pattern), so a pair agrees exactly when the two vectors are equal.
struct KernelCase {
  using Words = std::vector<std::uint64_t>;
  std::string name;
  std::string suite;  ///< "sp800_22", "sp800_90b" or "ais31_fips140"
  std::function<Words(const BitStream&)> kernel;
  std::function<Words(const BitStream&)> oracle;
};

/// Every kernel of src/stats/kernels.h at least once.  Parameters that
/// depend on the stream length are derived from the stream each call.
const std::vector<KernelCase>& kernel_cases();

/// SP 800-90B 4.4.1 Repetition Count Test, one sample at a time: the oracle
/// of stats::RepetitionCountTest::feed_word.
class RepetitionCount {
 public:
  explicit RepetitionCount(std::size_t cutoff) : cutoff_(cutoff) {}
  /// Feed one bit; returns true while healthy, false once alarmed.
  bool feed(bool bit);
  bool alarmed() const { return alarmed_; }

 private:
  std::size_t cutoff_;
  bool last_ = false;
  std::size_t run_ = 0;
  bool alarmed_ = false;
  bool primed_ = false;
};

/// SP 800-90B 4.4.2 Adaptive Proportion Test, one sample at a time: the
/// oracle of stats::AdaptiveProportionTest::feed_word.
class AdaptiveProportion {
 public:
  explicit AdaptiveProportion(std::size_t cutoff, std::size_t window = 1024)
      : window_(window), cutoff_(cutoff) {}
  bool feed(bool bit);
  bool alarmed() const { return alarmed_; }

 private:
  std::size_t window_;
  std::size_t cutoff_;
  bool reference_ = false;
  std::size_t index_ = 0;
  std::size_t matches_ = 0;
  bool alarmed_ = false;
};

/// Both tests side by side, the oracle of stats::HealthMonitor::feed_word.
/// The cutoffs come from the monitor under test: deriving them from the
/// claimed min-entropy is not what the comparison checks.
struct HealthFeeds {
  RepetitionCount rct;
  AdaptiveProportion apt;

  /// Returns true while both tests are healthy.
  bool feed(bool bit) {
    const bool a = rct.feed(bit);
    const bool b = apt.feed(bit);
    return a && b;
  }
  bool healthy() const { return !rct.alarmed() && !apt.alarmed(); }
};

}  // namespace dhtrng::stats::oracle
