// Streaming certification accumulators (see streaming.h for the model).
//
// The snapshot-time formulas below are deliberate replicas of the batch
// suites' scoring — frequency/block_frequency/runs/cusum from
// sp800_22/frequency_tests.cpp and mcv/markov (+ make_result) from
// sp800_90b/basic.cpp, whose counting kernels the bit-at-a-time oracle
// (tests/support/stats_oracle.h) pins.  The duplication is the design: the
// streaming side keeps only integer sufficient statistics and must replay
// the batch floating-point sequence exactly at snapshot() time, and the
// differential battery (tests/stats/test_streaming_differential.cpp)
// fails the build of any edit that lets the two sides drift.
#include "stats/streaming.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "support/special_functions.h"
#include "support/wordops.h"

namespace dhtrng::stats::streaming {

namespace {

using support::erfc;
using support::igamc;
using support::normal_cdf;
namespace wo = support::wordops;

constexpr double kZ99 = 2.5758293035489004;  // mirrors sp800_90b/basic.cpp

bool is_pow2(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

double replica_frequency_p(std::uint64_t n_, std::uint64_t ones_) {
  const double n = static_cast<double>(n_);
  const double ones = static_cast<double>(ones_);
  const double s = std::abs(2.0 * ones - n) / std::sqrt(n);
  return erfc(s / std::sqrt(2.0));
}

double replica_block_frequency_p(std::uint64_t blocks, std::uint64_t sum_sq,
                                 std::size_t block_len) {
  // With block_len = 2^k every scalar term (pi - 0.5)^2 = d^2/block_len^2
  // is an exact dyadic rational and the scalar running sum stays exact
  // below 2^53, so the integer sum of d^2 reconstructs the scalar
  // chi-square bit-for-bit in any summation order.
  double chi2 = static_cast<double>(sum_sq) /
                (static_cast<double>(block_len) * static_cast<double>(block_len));
  chi2 *= 4.0 * static_cast<double>(block_len);
  return igamc(static_cast<double>(blocks) / 2.0, chi2 / 2.0);
}

double replica_runs_p(std::uint64_t n_, std::uint64_t ones_, std::uint64_t v_) {
  const double nd = static_cast<double>(n_);
  const double pi = static_cast<double>(ones_) / nd;
  if (std::abs(pi - 0.5) >= 2.0 / std::sqrt(nd)) {
    return 0.0;  // prerequisite frequency check failed (2.3.4 step 2)
  }
  const double vd = static_cast<double>(v_);
  return erfc(std::abs(vd - 2.0 * nd * pi * (1.0 - pi)) /
              (2.0 * std::sqrt(2.0 * nd) * pi * (1.0 - pi)));
}

double replica_cusum_p(std::uint64_t n, std::int64_t z_) {
  if (z_ == 0) return 0.0;
  const double zn = static_cast<double>(z_);
  const double sqrt_n = std::sqrt(static_cast<double>(n));
  const double nd = static_cast<double>(n);
  double sum1 = 0.0;
  {
    const long long lo = static_cast<long long>((-nd / zn + 1.0) / 4.0);
    const long long hi = static_cast<long long>((nd / zn - 1.0) / 4.0);
    for (long long k = lo; k <= hi; ++k) {
      const double kd = static_cast<double>(k);
      sum1 += normal_cdf((4.0 * kd + 1.0) * zn / sqrt_n) -
              normal_cdf((4.0 * kd - 1.0) * zn / sqrt_n);
    }
  }
  double sum2 = 0.0;
  {
    const long long lo = static_cast<long long>((-nd / zn - 3.0) / 4.0);
    const long long hi = static_cast<long long>((nd / zn - 1.0) / 4.0);
    for (long long k = lo; k <= hi; ++k) {
      const double kd = static_cast<double>(k);
      sum2 += normal_cdf((4.0 * kd + 3.0) * zn / sqrt_n) -
              normal_cdf((4.0 * kd + 1.0) * zn / sqrt_n);
    }
  }
  return 1.0 - sum1 + sum2;
}

/// make_result's p_max -> h_min mapping (clamp, -log2, cap at 1 bit).
double h_from_p_max(double p_max) {
  const double clamped = std::clamp(p_max, 1e-12, 1.0);
  return std::min(-std::log2(clamped), 1.0);
}

double replica_mcv_h(std::uint64_t n_, std::uint64_t ones_) {
  if (n_ < 2) return h_from_p_max(1.0);  // matches the scalar n < 2 guard
  const double n = static_cast<double>(n_);
  const double ones = static_cast<double>(ones_);
  const double p_hat = std::max(ones, n - ones) / n;
  const double p_u = std::min(
      1.0, p_hat + kZ99 * std::sqrt(p_hat * (1.0 - p_hat) / (n - 1.0)));
  return h_from_p_max(p_u);
}

double replica_markov_h(std::uint64_t n_, std::uint64_t ones_,
                        std::uint64_t t11, std::uint64_t t10,
                        std::uint64_t t01) {
  if (n_ < 2) return h_from_p_max(1.0);
  const std::uint64_t pairs = n_ - 1;
  std::array<std::array<double, 2>, 2> counts{};
  counts[1][1] = static_cast<double>(t11);
  counts[1][0] = static_cast<double>(t10);
  counts[0][1] = static_cast<double>(t01);
  counts[0][0] = static_cast<double>(pairs - t11 - t10 - t01);
  const double ones = static_cast<double>(ones_);
  std::array<double, 2> p_init = {1.0 - ones / static_cast<double>(n_),
                                  ones / static_cast<double>(n_)};
  std::array<std::array<double, 2>, 2> t{};
  for (int a = 0; a < 2; ++a) {
    const double row = counts[static_cast<std::size_t>(a)][0] +
                       counts[static_cast<std::size_t>(a)][1];
    for (int b = 0; b < 2; ++b) {
      t[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
          row > 0.0 ? counts[static_cast<std::size_t>(a)]
                            [static_cast<std::size_t>(b)] /
                          row
                    : 0.5;
    }
  }
  constexpr int kSteps = 128;
  std::array<double, 2> logp = {
      p_init[0] > 0 ? std::log2(p_init[0]) : -1e300,
      p_init[1] > 0 ? std::log2(p_init[1]) : -1e300};
  for (int step = 1; step < kSteps; ++step) {
    std::array<double, 2> next = {-1e300, -1e300};
    for (int a = 0; a < 2; ++a) {
      for (int b = 0; b < 2; ++b) {
        const double tr =
            t[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
        if (tr <= 0.0) continue;
        next[static_cast<std::size_t>(b)] =
            std::max(next[static_cast<std::size_t>(b)],
                     logp[static_cast<std::size_t>(a)] + std::log2(tr));
      }
    }
    logp = next;
  }
  const double best = std::max(logp[0], logp[1]);
  const double p_max = std::pow(2.0, best / kSteps);
  return h_from_p_max(p_max);
}

}  // namespace

double Snapshot::live_min_entropy() const {
  if (windows > 0) return std::min(window_mcv_h_last, window_markov_h_last);
  if (mcv_valid) return std::min(mcv_h, markov_h);
  return 0.0;
}

bool Snapshot::pass(const Thresholds& t) const {
  if (frequency_valid && frequency_p < t.alpha) return false;
  if (block_frequency_valid && block_frequency_p < t.alpha) return false;
  if (runs_valid && runs_p < t.alpha) return false;
  if (cusum_valid && (cusum_fwd_p < t.alpha || cusum_bwd_p < t.alpha)) {
    return false;
  }
  if (windows > 0) {
    if (window_mcv_h_last < t.min_entropy ||
        window_markov_h_last < t.min_entropy) {
      return false;
    }
  } else if (mcv_valid &&
             (mcv_h < t.min_entropy || markov_h < t.min_entropy)) {
    return false;
  }
  return true;
}

SourceTracker::SourceTracker(TrackerConfig config) : config_(config) {
  if (!is_pow2(config_.block_len) || config_.block_len < 8) {
    throw std::invalid_argument(
        "SourceTracker: block_len must be a power of two >= 8");
  }
  if (!is_pow2(config_.window_bits) || config_.window_bits < 8) {
    throw std::invalid_argument(
        "SourceTracker: window_bits must be a power of two >= 8");
  }
}

void SourceTracker::step_bit(bool bit) {
  const bool had = n_ > 0;
  const bool prev = last_bit_;
  const bool in_window = w_fill_ > 0;
  ++n_;
  ones_ += bit ? 1 : 0;
  if (!had) {
    first_bit_ = bit;
  } else if (prev != bit) {
    ++transitions_;
  }
  last_bit_ = bit;
  if (had) {
    if (prev && bit) ++t11_;
    else if (prev) ++t10_;
    else if (bit) ++t01_;
  }
  const std::int64_t d = bit ? 1 : -1;
  max_prefix_ = std::max(max_prefix_, walk_ + d);
  min_prefix_ = std::min(min_prefix_, walk_ + d);
  max_suffix_ = std::max<std::int64_t>(0, max_suffix_ + d);
  min_suffix_ = std::min<std::int64_t>(0, min_suffix_ + d);
  walk_ += d;
  cur_block_ones_ += bit ? 1 : 0;
  if (++cur_block_fill_ == config_.block_len) finish_block();
  if (in_window) {
    if (prev && bit) ++w_t11_;
    else if (prev) ++w_t10_;
    else if (bit) ++w_t01_;
  }
  w_ones_ += bit ? 1 : 0;
  if (++w_fill_ == config_.window_bits) finish_window();
}

// The byte step requires n_ % 8 == 0 on entry (the feed entry points
// guarantee it); block and window boundaries are then byte-aligned, so a
// byte never straddles one.  `msb_first` picks the stream order within the
// byte; the walk table of that order gives the byte's counts and prefix
// extremes, and the table of the reverse order its suffix extremes.
void SourceTracker::step_byte(std::uint8_t v, bool msb_first) {
  const bool had = n_ > 0;
  const bool prev = last_bit_;
  const bool in_window = w_fill_ > 0;
  const wo::ByteWalk& fw =
      msb_first ? wo::kWalkBackward[v] : wo::kWalkForward[v];
  // Prefix extremes of the reversed traversal == suffix extremes of the
  // stream-order walk.
  const wo::ByteWalk& sfx =
      msb_first ? wo::kWalkForward[v] : wo::kWalkBackward[v];
  const bool first = fw.first;

  n_ += 8;
  ones_ += fw.ones;
  if (!had) {
    first_bit_ = first;
  } else if (prev != first) {
    ++transitions_;
  }
  transitions_ += fw.transitions;
  last_bit_ = fw.last;
  if (had) {
    if (prev && first) ++t11_;
    else if (prev) ++t10_;
    else if (first) ++t01_;
  }
  t11_ += fw.t11;
  t10_ += fw.t10;
  t01_ += fw.t01;
  max_prefix_ = std::max(max_prefix_, walk_ + fw.max_prefix);
  min_prefix_ = std::min(min_prefix_, walk_ + fw.min_prefix);
  max_suffix_ = std::max<std::int64_t>(
      {0, static_cast<std::int64_t>(sfx.max_prefix), max_suffix_ + fw.delta});
  min_suffix_ = std::min<std::int64_t>(
      {0, static_cast<std::int64_t>(sfx.min_prefix), min_suffix_ + fw.delta});
  walk_ += fw.delta;
  cur_block_ones_ += fw.ones;
  cur_block_fill_ += 8;
  if (cur_block_fill_ == config_.block_len) finish_block();
  if (in_window) {
    if (prev && first) ++w_t11_;
    else if (prev) ++w_t10_;
    else if (first) ++w_t01_;
  }
  w_t11_ += fw.t11;
  w_t10_ += fw.t10;
  w_t01_ += fw.t01;
  w_ones_ += fw.ones;
  w_fill_ += 8;
  if (w_fill_ == config_.window_bits) finish_window();
}

void SourceTracker::finish_block() {
  const std::int64_t d = static_cast<std::int64_t>(cur_block_ones_) -
                         static_cast<std::int64_t>(config_.block_len / 2);
  block_sum_sq_ += static_cast<std::uint64_t>(d * d);
  ++blocks_;
  cur_block_ones_ = 0;
  cur_block_fill_ = 0;
}

void SourceTracker::finish_window() {
  const double mcv =
      replica_mcv_h(config_.window_bits, w_ones_);
  const double markov = replica_markov_h(config_.window_bits, w_ones_, w_t11_,
                                         w_t10_, w_t01_);
  w_mcv_last_ = mcv;
  w_markov_last_ = markov;
  if (windows_ == 0) {
    w_mcv_min_ = mcv;
    w_markov_min_ = markov;
  } else {
    w_mcv_min_ = std::min(w_mcv_min_, mcv);
    w_markov_min_ = std::min(w_markov_min_, markov);
  }
  ++windows_;
  w_ones_ = 0;
  w_t11_ = w_t10_ = w_t01_ = 0;
  w_fill_ = 0;
}

void SourceTracker::feed_bit(bool bit) { step_bit(bit); }

void SourceTracker::feed_word(std::uint64_t bits, std::size_t nbits) {
  if (nbits > 64) {
    throw std::invalid_argument("SourceTracker::feed_word: nbits > 64");
  }
  while (nbits >= 8 && (n_ % 8) == 0) {
    step_byte(static_cast<std::uint8_t>(bits & 0xff), false);
    bits >>= 8;
    nbits -= 8;
  }
  for (std::size_t i = 0; i < nbits; ++i) {
    step_bit(((bits >> i) & 1u) != 0);
  }
}

void SourceTracker::feed_bytes(const std::uint8_t* data, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    if ((n_ % 8) == 0) {
      step_byte(data[i], true);
    } else {
      for (int b = 7; b >= 0; --b) {
        step_bit(((data[i] >> b) & 1u) != 0);
      }
    }
  }
}

void SourceTracker::merge(const SourceTracker& rhs) {
  if (config_.block_len != rhs.config_.block_len ||
      config_.window_bits != rhs.config_.window_bits) {
    throw std::invalid_argument("SourceTracker::merge: config mismatch");
  }
  const std::uint64_t align =
      std::max(config_.block_len, config_.window_bits);
  if (n_ % align != 0) {
    throw std::invalid_argument(
        "SourceTracker::merge: left stream not aligned to "
        "max(block_len, window_bits); merged blocks/windows would shift");
  }
  if (rhs.n_ == 0) return;
  if (n_ > 0) {
    transitions_ += rhs.transitions_ + (last_bit_ != rhs.first_bit_ ? 1 : 0);
    if (last_bit_ && rhs.first_bit_) ++t11_;
    else if (last_bit_) ++t10_;
    else if (rhs.first_bit_) ++t01_;
  } else {
    transitions_ = rhs.transitions_;
    first_bit_ = rhs.first_bit_;
  }
  last_bit_ = rhs.last_bit_;
  t11_ += rhs.t11_;
  t10_ += rhs.t10_;
  t01_ += rhs.t01_;
  // rhs's walk extremes, re-based on this walk's endpoint (prefixes) and
  // displaced suffixes; both sides' extremes include the empty walk.
  max_prefix_ = std::max(max_prefix_, walk_ + rhs.max_prefix_);
  min_prefix_ = std::min(min_prefix_, walk_ + rhs.min_prefix_);
  max_suffix_ = std::max(rhs.max_suffix_, max_suffix_ + rhs.walk_);
  min_suffix_ = std::min(rhs.min_suffix_, min_suffix_ + rhs.walk_);
  walk_ += rhs.walk_;
  // Alignment guarantees this tracker's partial block/window are empty,
  // so rhs's partials carry over verbatim.
  block_sum_sq_ += rhs.block_sum_sq_;
  blocks_ += rhs.blocks_;
  cur_block_ones_ = rhs.cur_block_ones_;
  cur_block_fill_ = rhs.cur_block_fill_;
  if (rhs.windows_ > 0) {
    w_mcv_last_ = rhs.w_mcv_last_;
    w_markov_last_ = rhs.w_markov_last_;
    if (windows_ == 0) {
      w_mcv_min_ = rhs.w_mcv_min_;
      w_markov_min_ = rhs.w_markov_min_;
    } else {
      w_mcv_min_ = std::min(w_mcv_min_, rhs.w_mcv_min_);
      w_markov_min_ = std::min(w_markov_min_, rhs.w_markov_min_);
    }
    windows_ += rhs.windows_;
  }
  w_ones_ = rhs.w_ones_;
  w_t11_ = rhs.w_t11_;
  w_t10_ = rhs.w_t10_;
  w_t01_ = rhs.w_t01_;
  w_fill_ = rhs.w_fill_;
  n_ += rhs.n_;
  ones_ += rhs.ones_;
}

Snapshot SourceTracker::snapshot() const {
  Snapshot s;
  s.block_len = config_.block_len;
  s.window_bits = config_.window_bits;
  s.bits = n_;
  s.ones = ones_;
  s.runs_v = n_ > 0 ? transitions_ + 1 : 0;
  s.cusum_fwd_peak = std::max(max_prefix_, -min_prefix_);
  s.cusum_bwd_peak = std::max(max_suffix_, -min_suffix_);
  s.blocks = blocks_;
  s.block_sum_sq = block_sum_sq_;
  s.markov_t11 = t11_;
  s.markov_t10 = t10_;
  s.markov_t01 = t01_;
  s.windows = windows_;
  s.frequency_valid = n_ >= 1;
  s.runs_valid = n_ >= 1;
  s.cusum_valid = n_ >= 1;
  s.block_frequency_valid = blocks_ >= 1;
  s.mcv_valid = n_ >= 2;
  s.markov_valid = n_ >= 2;
  // Empty-stream tail semantics: the scalar frequency/runs kernels
  // divide by n and yield NaN on empty input, so those p-values stay at
  // their no-data default (1.0, valid = false).  Everything else is
  // well-defined for every n and computed unconditionally, matching the
  // scalar result exactly (cusum: z = 0 -> 0.0; block frequency with 0
  // blocks: igamc(0, 0) = 1.0; mcv/markov: p_max = 1.0 below 2 bits).
  if (s.frequency_valid) s.frequency_p = replica_frequency_p(n_, ones_);
  s.block_frequency_p =
      replica_block_frequency_p(blocks_, block_sum_sq_, config_.block_len);
  if (s.runs_valid) s.runs_p = replica_runs_p(n_, ones_, s.runs_v);
  s.cusum_fwd_p = replica_cusum_p(n_, s.cusum_fwd_peak);
  s.cusum_bwd_p = replica_cusum_p(n_, s.cusum_bwd_peak);
  s.mcv_h = replica_mcv_h(n_, ones_);
  s.markov_h = replica_markov_h(n_, ones_, t11_, t10_, t01_);
  if (windows_ > 0) {
    s.window_mcv_h_last = w_mcv_last_;
    s.window_markov_h_last = w_markov_last_;
    s.window_mcv_h_min = w_mcv_min_;
    s.window_markov_h_min = w_markov_min_;
  }
  return s;
}

}  // namespace dhtrng::stats::streaming
