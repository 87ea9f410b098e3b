// SP 800-90B sections 6.3.5 and 6.3.6: t-Tuple and Longest Repeated
// Substring estimators (binary alphabet, windowed counting).
//
// t-Tuple reads its short lengths (on typical data, every length whose
// most common tuple reaches the 35-count cutoff) from one flat count table
// of the longest of them, folded down one length at a time.  LRS, and t-Tuple past the flat lengths, take
// the per-length statistics (max count, number of colliding pairs) from
// refining a partition of window start positions one bit at a time:
// groups of positions whose windows agree on the first L bits are split by
// bit L, singletons drop out, and the statistics are read off the group
// sizes.  Streams too long for the refiner's 32-bit positions rescan the
// stream once per length with flat / hashed window tables instead.  All
// are multiset statistics of the value -> count map — max is order-free
// and the pair sum adds integers (C(c,2) <= C(n,2) < 2^53), so the doubles
// agree bit-for-bit whichever produced them.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "stats/kernels.h"
#include "stats/scores.h"
#include "stats/sp800_90b.h"
#include "support/wordops.h"

namespace dhtrng::stats::kernels {

namespace {

constexpr std::size_t kFlatLimit = 20;  // flat table up to 2^20 counters

}  // namespace

TupleStats tuple_stats(const BitStream& bits, std::size_t len) {
  TupleStats st;
  const std::size_t n = bits.size();
  if (len == 0 || len > 63 || n < len) return st;
  const std::uint64_t mask =
      len == 63 ? ~std::uint64_t{0} >> 1 : (std::uint64_t{1} << len) - 1;
  const auto account = [&](std::uint64_t count) {
    st.max_count = std::max(st.max_count, count);
    st.collision_pairs +=
        0.5 * static_cast<double>(count) * static_cast<double>(count - 1);
  };
  if (len <= kFlatLimit) {
    std::vector<std::uint32_t> counts(std::size_t{1} << len, 0);
    std::uint64_t window = 0;
    for (std::size_t i = 0; i < n; ++i) {
      window = ((window << 1) | (bits[i] ? 1u : 0u)) & mask;
      if (i + 1 >= len) ++counts[window];
    }
    for (std::uint32_t c : counts) {
      if (c > 1) account(c);
      else st.max_count = std::max<std::uint64_t>(st.max_count, c);
    }
  } else {
    std::unordered_map<std::uint64_t, std::uint32_t> counts;
    counts.reserve(n);
    std::uint64_t window = 0;
    for (std::size_t i = 0; i < n; ++i) {
      window = ((window << 1) | (bits[i] ? 1u : 0u)) & mask;
      if (i + 1 >= len) ++counts[window];
    }
    for (const auto& [value, c] : counts) {
      (void)value;
      if (c > 1) account(c);
      else st.max_count = std::max<std::uint64_t>(st.max_count, c);
    }
  }
  return st;
}

namespace {

/// Incremental partition refinement over window start positions.  After
/// `next()` has been called L times, the kept groups are exactly the sets
/// of positions p <= n - L whose length-L windows are equal, restricted to
/// groups of size >= 2 (singletons can never split again and contribute
/// neither a pair nor a max beyond 1).  Each refinement step only touches
/// positions still in a group, so the cost collapses once the data stops
/// repeating — O(n) per length early on, near zero past ~2 log2 n.
class TupleRefiner {
 public:
  explicit TupleRefiner(const BitStream& bits)
      : words_(bits.words()), n_(bits.size()) {
    pos_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      pos_[i] = static_cast<std::uint32_t>(i);
    }
    tmp_.resize(n_);
    if (n_ > 0) group_len_.push_back(n_);
  }

  /// Advance to the next length (first call refines to length 1) and
  /// return that length's statistics.
  TupleStats next() {
    ++len_;
    TupleStats st;
    if (len_ > n_) {
      group_len_.clear();
      return st;
    }
    const std::size_t limit = n_ - len_;   // valid starts: p <= limit
    const std::size_t off = len_ - 1;      // split by bits[p + off]
    std::uint64_t largest = 0;
    std::size_t read = 0, out = 0;
    new_groups_.clear();
    for (std::size_t glen : group_len_) {
      zeros_.clear();
      ones_.clear();
      for (std::size_t k = 0; k < glen; ++k) {
        const std::uint32_t p = pos_[read + k];
        if (p > limit) continue;  // window would run past the end
        const std::size_t q = p + off;
        if ((words_[q >> 6] >> (q & 63)) & 1) {
          ones_.push_back(p);
        } else {
          zeros_.push_back(p);
        }
      }
      read += glen;
      for (const auto* sub : {&zeros_, &ones_}) {
        const std::size_t c = sub->size();
        if (c < 2) continue;  // singleton: count 1, no pairs, never splits
        for (std::uint32_t p : *sub) tmp_[out++] = p;
        new_groups_.push_back(c);
        largest = std::max<std::uint64_t>(largest, c);
        st.collision_pairs +=
            0.5 * static_cast<double>(c) * static_cast<double>(c - 1);
      }
    }
    pos_.swap(tmp_);
    group_len_.swap(new_groups_);
    // Every valid window carries some value, so the max count is at least 1
    // even when all surviving counts (dropped singletons) are exactly 1.
    st.max_count = std::max<std::uint64_t>(largest, 1);
    return st;
  }

 private:
  std::span<const std::uint64_t> words_;
  std::size_t n_;
  std::size_t len_ = 0;
  std::vector<std::uint32_t> pos_, tmp_, zeros_, ones_;
  std::vector<std::size_t> group_len_, new_groups_;
};

bool use_refiner(const BitStream& bits) {
  return bits.size() < std::numeric_limits<std::uint32_t>::max();
}

/// The statistics of lengths 1, 2, ... in turn, from the refiner or, for
/// streams too long for it, from one exact scan per length.
class LengthSweep {
 public:
  explicit LengthSweep(const BitStream& bits) : bits_(bits) {
    if (use_refiner(bits)) refiner_.emplace(bits);
  }
  TupleStats next() {
    ++len_;
    return refiner_ ? refiner_->next() : tuple_stats(bits_, len_);
  }

 private:
  const BitStream& bits_;
  std::optional<TupleRefiner> refiner_;
  std::size_t len_ = 0;
};

/// max_count[len] for len = 1..top (1 <= top <= min(size, kFlatLimit)):
/// the count of the most common overlapping window of each length.  One
/// pass counts the length-`top` windows by MSB-first value; dropping a
/// window's last bit halves its value, so each shorter length's table folds
/// from the longer one, plus the one shorter window too late in the stream
/// to begin a longer one (the stream's last len bits).
std::vector<std::uint64_t> flat_max_counts(const BitStream& bits,
                                           std::size_t top) {
  const std::size_t n = bits.size();
  std::vector<std::uint32_t> counts(std::size_t{1} << top, 0);
  const std::uint64_t mask = (std::uint64_t{1} << top) - 1;
  std::uint64_t window = support::wordops::feed_msb_first(
      bits, 0, top - 1, 0, mask, [](std::uint64_t) {});
  window = support::wordops::feed_msb_first(
      bits, top - 1, n, window, mask, [&](std::uint64_t w) { ++counts[w]; });
  std::vector<std::uint64_t> max_count(top + 1, 0);
  for (std::size_t len = top;; --len) {
    const std::size_t size = std::size_t{1} << len;
    max_count[len] = *std::max_element(counts.data(), counts.data() + size);
    if (len == 1) break;
    for (std::size_t v = 0; v < size / 2; ++v) {
      counts[v] = counts[2 * v] + counts[2 * v + 1];
    }
    ++counts[window & (size / 2 - 1)];
  }
  return max_count;
}

}  // namespace

double t_tuple_p_hat(const BitStream& bits) {
  const std::size_t n = bits.size();
  if (n == 0) return 0.0;
  // Find t: the largest tuple length whose most common tuple appears at
  // least 35 times; P_max over lengths 1..t of (max_count / windows)^(1/i).
  // The flat table reaches two lengths past where an unbiased stream's
  // expected count n / 2^len falls below the cutoff; a stream whose counts
  // stay above it continues on the refiner.  Its 32-bit counters hold any
  // stream the refiner's 32-bit positions do.
  const std::size_t top =
      use_refiner(bits)
          ? std::min({kFlatLimit, n,
                      static_cast<std::size_t>(
                          std::bit_width(n / kTupleCutoff)) + 2})
          : 0;
  const std::vector<std::uint64_t> flat =
      top > 0 ? flat_max_counts(bits, top) : std::vector<std::uint64_t>{};
  std::optional<LengthSweep> sweep;
  double p_hat = 0.0;
  for (std::size_t len = 1; len <= kMaxTupleLen; ++len) {
    std::uint64_t max_count = 0;
    if (len <= top) {
      max_count = flat[len];
    } else {
      if (!sweep) {
        sweep.emplace(bits);
        for (std::size_t skip = 1; skip < len; ++skip) sweep->next();
      }
      max_count = sweep->next().max_count;
    }
    if (max_count < kTupleCutoff) break;
    const double windows = static_cast<double>(n - len + 1);
    const double p_len = std::pow(
        static_cast<double>(max_count) / windows,
        1.0 / static_cast<double>(len));
    p_hat = std::max(p_hat, p_len);
  }
  return p_hat;
}

double lrs_p_hat(const BitStream& bits) {
  const std::size_t n = bits.size();
  // Lengths below u (the first length whose most common tuple appears
  // fewer than 35 times) only advance the sweep; from u on, the pair counts
  // feed the estimate until repeats run out.
  LengthSweep sweep(bits);
  double p_hat = 0.0;
  bool counting = false;
  for (std::size_t len = 1; len <= kMaxTupleLen; ++len) {
    const TupleStats st = sweep.next();
    if (!counting) {
      if (st.max_count >= kTupleCutoff) continue;
      counting = true;  // len == u
    }
    if (st.collision_pairs < 1.0) break;  // no repeats at this length
    const double windows = static_cast<double>(n - len + 1);
    const double total_pairs = 0.5 * windows * (windows - 1.0);
    const double p_w = st.collision_pairs / total_pairs;
    p_hat = std::max(p_hat, std::pow(p_w, 1.0 / static_cast<double>(len)));
  }
  return p_hat;
}

}  // namespace dhtrng::stats::kernels

namespace dhtrng::stats::sp800_90b {

namespace {

EstimatorResult bounded(std::string name, double p_hat, double n) {
  if (p_hat == 0.0) p_hat = 0.5;
  const scores::MinEntropy m =
      scores::min_entropy(scores::p_upper_99(p_hat, n));
  EstimatorResult r;
  r.name = std::move(name);
  r.p_max = m.p_max;
  r.h_min = m.h_min;
  return r;
}

}  // namespace

EstimatorResult t_tuple(const BitStream& bits) {
  return bounded("t-Tuple", kernels::t_tuple_p_hat(bits),
                 static_cast<double>(bits.size()));
}

EstimatorResult lrs(const BitStream& bits) {
  return bounded("LRS", kernels::lrs_p_hat(bits),
                 static_cast<double>(bits.size()));
}

}  // namespace dhtrng::stats::sp800_90b
