// Streaming certification accumulators (see streaming.h for the model).
//
// The tracker only counts; snapshot() and the window close score the
// counts with the batch suites' own scorers (stats/scores.h), so a
// streaming p-value or h_min equals the batch one whenever the counts do.
#include "stats/streaming.h"

#include <algorithm>
#include <stdexcept>

#include "stats/scores.h"
#include "support/wordops.h"

namespace dhtrng::stats::streaming {

namespace {

namespace wo = support::wordops;

bool is_pow2(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

double mcv_h(std::uint64_t n, std::uint64_t ones) {
  return scores::min_entropy(scores::mcv_p_max(n, ones)).h_min;
}

double markov_h(std::uint64_t n, std::uint64_t ones, std::uint64_t t11,
                std::uint64_t t10, std::uint64_t t01) {
  // The fourth kind of pair, 0 -> 0, is the rest of the n - 1 pairs.
  const std::uint64_t t00 = n > 0 ? n - 1 - t11 - t10 - t01 : 0;
  return scores::min_entropy(
             scores::markov_p_max(n, ones, {{{t00, t01}, {t10, t11}}}))
      .h_min;
}

}  // namespace

double Snapshot::live_min_entropy() const {
  if (windows > 0) return std::min(window_mcv_h_last, window_markov_h_last);
  if (mcv_valid) return std::min(mcv_h, markov_h);
  return 0.0;
}

bool Snapshot::pass() const {
  if (frequency_valid && frequency_p < kAlpha) return false;
  if (block_frequency_valid && block_frequency_p < kAlpha) return false;
  if (runs_valid && runs_p < kAlpha) return false;
  if (cusum_valid && (cusum_fwd_p < kAlpha || cusum_bwd_p < kAlpha)) {
    return false;
  }
  if (windows > 0) {
    if (window_mcv_h_last < kMinEntropy ||
        window_markov_h_last < kMinEntropy) {
      return false;
    }
  } else if (mcv_valid && (mcv_h < kMinEntropy || markov_h < kMinEntropy)) {
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

// Every feed is whole bytes, so n_ % 8 == 0 on entry; block and window
// lengths are powers of two >= 8, so a byte never straddles a block or
// window boundary.  Bytes unpack MSB-first: the walk table of that order
// gives the byte's counts and prefix extremes, and the table of the
// reverse order its suffix extremes.
void SourceTracker::step_byte(std::uint8_t v) {
  const bool had = n_ > 0;
  const bool prev = last_bit_;
  const bool in_window = w_fill_ > 0;
  const wo::ByteWalk& fw = wo::kWalkBackward[v];
  // Prefix extremes of the reversed traversal == suffix extremes of the
  // stream-order walk.
  const wo::ByteWalk& sfx = wo::kWalkForward[v];
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
  const double mcv = mcv_h(config_.window_bits, w_ones_);
  const double markov =
      markov_h(config_.window_bits, w_ones_, w_t11_, w_t10_, w_t01_);
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

void SourceTracker::feed_bytes(const std::uint8_t* data, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) step_byte(data[i]);
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
  if (s.frequency_valid) s.frequency_p = scores::frequency_p(n_, ones_);
  // With block_len = 2^k each batch term (pi - 0.5)^2 = d^2 / block_len^2
  // is an exact dyadic rational and the batch running sum stays exact
  // below 2^53, so the integer sum of d^2 gives the batch sum bit for bit.
  const double block_len = static_cast<double>(config_.block_len);
  s.block_frequency_p = scores::block_frequency_p(
      blocks_, static_cast<double>(block_sum_sq_) / (block_len * block_len),
      config_.block_len);
  if (s.runs_valid) s.runs_p = scores::runs_p(n_, ones_, s.runs_v);
  s.cusum_fwd_p = scores::cusum_p(n_, s.cusum_fwd_peak);
  s.cusum_bwd_p = scores::cusum_p(n_, s.cusum_bwd_peak);
  s.mcv_h = mcv_h(n_, ones_);
  s.markov_h = markov_h(n_, ones_, t11_, t10_, t01_);
  if (windows_ > 0) {
    s.window_mcv_h_last = w_mcv_last_;
    s.window_markov_h_last = w_markov_last_;
    s.window_mcv_h_min = w_mcv_min_;
    s.window_markov_h_min = w_markov_min_;
  }
  return s;
}

}  // namespace dhtrng::stats::streaming
