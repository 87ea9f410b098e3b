// SP 800-90B section 4.4 continuous health tests: the Repetition Count
// Test (RCT) and the Adaptive Proportion Test (APT).
//
// These run *inside* a deployed entropy source over every raw sample and
// raise an alarm when the noise source degrades (a stuck ring, a locked
// loop, a massive bias).  The paper's DH-TRNG targets exactly such
// deployments (roots of trust), so the library ships them; the entropy
// pool, the key_generation example and the failure-injection tests run
// them.  Samples are fed up to 64 at a time through feed_word(); the
// bit-at-a-time definitions they must match live in the test oracle
// (tests/support/stats_oracle.h).
#pragma once

#include <cstddef>
#include <cstdint>

namespace dhtrng::stats {

/// Repetition Count Test (SP 800-90B 4.4.1): alarm when the same value
/// repeats C times in a row, with C chosen from the claimed per-sample
/// min-entropy H and a false-alarm probability of 2^-20:
///   C = 1 + ceil(20 / H).
class RepetitionCountTest {
 public:
  explicit RepetitionCountTest(double min_entropy_per_bit = 0.9);

  /// Feed `nbits` <= 64 samples at once, bit i of `bits` being the i-th
  /// sample (LSB-first emission order); returns true while healthy, false
  /// once alarmed.  Runs are consumed with trailing zero/one counts instead
  /// of per-bit branches; the resulting state — including the frozen run
  /// length at an alarm — is exactly what feeding the samples one at a time
  /// leaves behind.
  bool feed_word(std::uint64_t bits, std::size_t nbits);

  bool alarmed() const { return alarmed_; }
  std::size_t cutoff() const { return cutoff_; }
  void reset();

 private:
  std::size_t cutoff_;
  bool last_ = false;
  std::size_t run_ = 0;
  bool alarmed_ = false;
  bool primed_ = false;
};

/// Adaptive Proportion Test (SP 800-90B 4.4.2): within each window of
/// W = 1024 bits, alarm if the first value of the window occurs at least
/// C times *including that first (reference) sample* — the spec's counter
/// B starts at 1.  C is the 2^-20 binomial tail cutoff for the claimed
/// min-entropy: the smallest C with P(1 + Binomial(W-1, 2^-H) >= C) <= 2^-20;
/// for binary H = 1 the standard value is C = 589 and it grows toward W as
/// the claimed entropy falls.
class AdaptiveProportionTest {
 public:
  explicit AdaptiveProportionTest(double min_entropy_per_bit = 0.9,
                                  std::size_t window = 1024);

  /// Feed `nbits` <= 64 samples, LSB-first; returns true while healthy.
  /// Window segments are matched against the reference with masked
  /// popcounts; near the cutoff it falls back to per-bit steps so the alarm
  /// fires — and freezes the state — at exactly the same sample as feeding
  /// the samples one at a time.
  bool feed_word(std::uint64_t bits, std::size_t nbits);

  bool alarmed() const { return alarmed_; }
  std::size_t cutoff() const { return cutoff_; }
  void reset();

 private:
  /// One sample: the window's reference sample at a window start, else a
  /// match test against it.
  bool step(bool bit);

  std::size_t window_;
  std::size_t cutoff_;
  bool reference_ = false;
  std::size_t index_ = 0;
  std::size_t matches_ = 0;
  bool alarmed_ = false;
};

/// Convenience wrapper running both tests side by side.
class HealthMonitor {
 public:
  explicit HealthMonitor(double min_entropy_per_bit = 0.9);

  /// Feed `nbits` <= 64 samples (LSB-first) to both tests at once; returns
  /// true while both tests are healthy.
  bool feed_word(std::uint64_t bits, std::size_t nbits);

  bool healthy() const { return !rct_.alarmed() && !apt_.alarmed(); }
  const RepetitionCountTest& rct() const { return rct_; }
  const AdaptiveProportionTest& apt() const { return apt_; }
  void reset();

 private:
  RepetitionCountTest rct_;
  AdaptiveProportionTest apt_;
};

}  // namespace dhtrng::stats
