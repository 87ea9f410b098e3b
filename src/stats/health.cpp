#include "stats/health.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "support/special_functions.h"
#include "support/wordops.h"

namespace dhtrng::stats {

RepetitionCountTest::RepetitionCountTest(double min_entropy_per_bit)
    : cutoff_(1 + static_cast<std::size_t>(
                      std::ceil(20.0 / std::max(min_entropy_per_bit, 1e-3)))) {}

bool RepetitionCountTest::feed_word(std::uint64_t bits, std::size_t nbits) {
  if (alarmed_) return false;
  std::size_t i = 0;
  while (i < nbits) {
    const bool bit = (bits >> i) & 1;
    // Length of the run of `bit` starting at sample i within this word.
    const std::uint64_t rest = bits >> i;
    const std::size_t seg = std::min<std::size_t>(
        bit ? static_cast<std::size_t>(std::countr_one(rest))
            : static_cast<std::size_t>(std::countr_zero(rest)),
        nbits - i);
    if (primed_ && bit == last_) {
      run_ += seg;
    } else {
      run_ = seg;
      last_ = bit;
      primed_ = true;
    }
    if (run_ >= cutoff_) {
      // The per-sample test alarms the moment the counter reaches the
      // cutoff and freezes: run_ never exceeds cutoff_.
      run_ = cutoff_;
      alarmed_ = true;
      return false;
    }
    i += seg;
  }
  return true;
}

void RepetitionCountTest::reset() {
  run_ = 0;
  alarmed_ = false;
  primed_ = false;
}

namespace {

/// Smallest C with P(Binomial(W-1, p) >= C-1) <= 2^-20, where p = 2^-H is
/// the claimed most-common-value probability (SP 800-90B 4.4.2).
std::size_t apt_cutoff(double min_entropy_per_bit, std::size_t window) {
  const double p = std::pow(2.0, -std::max(min_entropy_per_bit, 1e-3));
  const double alpha = std::pow(2.0, -20.0);
  // Normal approximation with continuity correction is accurate for
  // W = 1024; walk up from the mean to find the tail cutoff.
  const double n = static_cast<double>(window - 1);
  const double mean = n * p;
  const double sigma = std::sqrt(n * p * (1.0 - p));
  std::size_t c = static_cast<std::size_t>(mean);
  for (; c <= window; ++c) {
    const double z = (static_cast<double>(c) - 0.5 - mean) / sigma;
    if (support::normal_q(z) <= alpha) break;
  }
  return std::min<std::size_t>(c + 1, window);
}

}  // namespace

AdaptiveProportionTest::AdaptiveProportionTest(double min_entropy_per_bit,
                                               std::size_t window)
    : window_(window), cutoff_(apt_cutoff(min_entropy_per_bit, window)) {}

bool AdaptiveProportionTest::step(bool bit) {
  if (alarmed_) return false;
  if (index_ == 0) {
    // SP 800-90B 4.4.2 step 2: the counter starts at 1, counting the
    // window's reference sample itself — the cutoff is a bound on the total
    // occurrence count within the window, reference included.
    reference_ = bit;
    matches_ = 1;
    if (matches_ >= cutoff_) alarmed_ = true;  // degenerate W=1 windows
  } else if (bit == reference_) {
    if (++matches_ >= cutoff_) alarmed_ = true;
  }
  if (++index_ >= window_) index_ = 0;
  return !alarmed_;
}

bool AdaptiveProportionTest::feed_word(std::uint64_t bits, std::size_t nbits) {
  if (alarmed_) return false;
  std::size_t i = 0;
  while (i < nbits) {
    if (index_ == 0) {  // window restart: one step for the reference bit
      if (!step((bits >> i) & 1)) {
        // Degenerate cutoff alarm on the reference sample itself; the
        // remaining samples would be swallowed by the sticky alarm anyway.
        return false;
      }
      ++i;
      continue;
    }
    const std::size_t span = std::min(nbits - i, window_ - index_);
    const std::uint64_t mask =
        span == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << span) - 1;
    const std::uint64_t seg = (bits >> i) & mask;
    const std::size_t m = static_cast<std::size_t>(
        support::wordops::popcount64(reference_ ? seg : ~seg & mask));
    if (matches_ + m >= cutoff_) {
      // The cutoff falls inside this segment: replay it per bit so the
      // alarm freezes index_/matches_ at exactly the per-sample alarm point.
      for (; i < nbits; ++i) step((bits >> i) & 1);
      return !alarmed_;
    }
    matches_ += m;
    index_ += span;
    if (index_ >= window_) index_ = 0;
    i += span;
  }
  return true;
}

void AdaptiveProportionTest::reset() {
  index_ = 0;
  matches_ = 0;
  alarmed_ = false;
}

HealthMonitor::HealthMonitor(double min_entropy_per_bit)
    : rct_(min_entropy_per_bit), apt_(min_entropy_per_bit) {}

bool HealthMonitor::feed_word(std::uint64_t bits, std::size_t nbits) {
  const bool a = rct_.feed_word(bits, nbits);
  const bool b = apt_.feed_word(bits, nbits);
  return a && b;
}

void HealthMonitor::reset() {
  rct_.reset();
  apt_.reset();
}

}  // namespace dhtrng::stats
