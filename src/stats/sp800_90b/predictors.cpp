// SP 800-90B sections 6.3.7-6.3.10: the four prediction estimators
// (MultiMCW, Lag, MultiMMC, LZ78Y) for the binary alphabet.
//
// Shared skeleton: several sub-predictors each guess the next bit; a
// scoreboard tracks which sub-predictor has been right most often and the
// *global* prediction at each step is the current leader's guess.  The
// entropy bound combines the global hit rate with the longest run of
// correct global predictions (predictor_p_max in basic.cpp).
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/kernels.h"
#include "stats/sp800_90b.h"

namespace dhtrng::stats::kernels {

PredictionScore multi_mcw_score(const BitStream& bits) {
  constexpr const auto& kWindows = kMcwWindows;
  const std::size_t n = bits.size();
  PredictionScore global;
  if (n <= kWindows[0] + 1) return global;

  std::array<std::size_t, 4> ones{};    // ones within each window
  std::array<std::size_t, 4> score{};   // sub-predictor scoreboard
  // Per-step body of the reference loop: predictions are the most common
  // value in each trailing window (ties -> 1, matching the reference
  // implementation's >= comparison).  It runs while a window still fills.
  const auto scalar_step = [&](std::size_t i) {
    std::array<bool, 4> pred{};
    std::size_t leader = 0;
    for (std::size_t w = 0; w < 4; ++w) {
      const std::size_t window = kWindows[w];
      if (i >= window) {
        pred[w] = 2 * ones[w] >= window;
      } else {
        pred[w] = pred[0];
      }
      if (score[w] > score[leader]) leader = w;
    }
    const bool actual = bits[i];
    global.observe(pred[leader] == actual);
    for (std::size_t w = 0; w < 4; ++w) {
      if (i >= kWindows[w] && pred[w] == actual) ++score[w];
    }
    // Slide the windows.
    for (std::size_t w = 0; w < 4; ++w) {
      const std::size_t window = kWindows[w];
      if (actual) ++ones[w];
      if (i >= window && bits[i - window]) --ones[w];
    }
  };

  // Warm-up until every window is full.
  const std::size_t split =
      std::min(n, kWindows[3] + 1);  // i >= 4096: all windows active
  std::size_t i = kWindows[0];
  for (; i < split; ++i) scalar_step(i);

  // Steady state: the incoming bit and the four bits leaving the windows
  // are read 64 at a time from the packed words; the prediction /
  // scoreboard updates are the per-step body with every `i >= window`
  // condition constant-true.
  for (std::size_t base = i; base < n; base += 64) {
    const std::size_t cnt = std::min<std::size_t>(64, n - base);
    const std::uint64_t cur = bits.chunk64(base);
    std::array<std::uint64_t, 4> leave;
    for (std::size_t w = 0; w < 4; ++w) {
      leave[w] = bits.chunk64(base - kWindows[w]);
    }
    for (std::size_t j = 0; j < cnt; ++j) {
      std::array<bool, 4> pred{};
      std::size_t leader = 0;
      for (std::size_t w = 0; w < 4; ++w) {
        pred[w] = 2 * ones[w] >= kWindows[w];
        if (score[w] > score[leader]) leader = w;
      }
      const bool actual = (cur >> j) & 1;
      global.observe(pred[leader] == actual);
      for (std::size_t w = 0; w < 4; ++w) {
        if (pred[w] == actual) ++score[w];
        if (actual) ++ones[w];
        ones[w] -= (leave[w] >> j) & 1;
      }
    }
  }
  return global;
}

/// The 128 sub-predictor scores are kept as bitsliced counters (plane p
/// holds bit p of all 128 scores in two words), so one step's increments —
/// the set of lags that predicted correctly, which is just the 128-bit
/// trailing history H (or its complement) — are applied with a ripple-carry
/// add in O(carry depth) word operations instead of 128 array updates.  The
/// leader is maintained incrementally: with M the current maximum score and
/// `mask` the set of lags attaining it, an increment set S either hits the
/// argmax (new maximum M+1, new argmax mask & S) or leaves M unchanged, in
/// which case the argmax set is re-derived from the planes by equality
/// match against M.  All state is integral, so the scores, leaders and
/// predictions are exactly those of the per-lag scoreboard.
PredictionScore lag_score(const BitStream& bits) {
  static_assert(kLags == 128, "two 64-bit words per plane");
  const std::size_t n = bits.size();
  PredictionScore global;
  if (n < 2) return global;
  constexpr std::size_t kPlanes = 48;  // scores < 2^48 always
  std::array<std::array<std::uint64_t, 2>, kPlanes> plane{};
  std::uint64_t m0 = ~std::uint64_t{0}, m1 = ~std::uint64_t{0};  // argmax set
  std::size_t max_score = 0;
  // History: bit d holds bits[i - 1 - d]; bits beyond the stream start stay
  // zero, matching "predict 0 before lag d is live".
  std::uint64_t h0 = bits[0] ? 1u : 0u, h1 = 0;
  for (std::size_t i = 1; i < n; ++i) {
    // Leader: smallest lag index attaining the maximum score.
    const std::size_t leader =
        m0 != 0 ? static_cast<std::size_t>(std::countr_zero(m0))
                : 64 + static_cast<std::size_t>(std::countr_zero(m1));
    const bool actual = bits[i];
    const bool prediction = leader < 64 ? ((h0 >> leader) & 1) != 0
                                        : ((h1 >> (leader - 64)) & 1) != 0;
    global.observe(prediction == actual);
    // Increment set: lag d+1 predicted correctly iff bits[i-1-d] == actual
    // and the lag is live (d <= i - 1).
    std::uint64_t s0 = actual ? h0 : ~h0;
    std::uint64_t s1 = actual ? h1 : ~h1;
    if (i < 64) {
      s0 &= (std::uint64_t{1} << i) - 1;
      s1 = 0;
    } else if (i < 128) {
      s1 &= (std::uint64_t{1} << (i - 64)) - 1;
    }
    // score[d] += S[d] for all d at once: ripple-carry into the planes.
    std::uint64_t c0 = s0, c1 = s1;
    for (std::size_t p = 0; (c0 | c1) != 0 && p < kPlanes; ++p) {
      const std::uint64_t o0 = plane[p][0], o1 = plane[p][1];
      plane[p][0] = o0 ^ c0;
      plane[p][1] = o1 ^ c1;
      c0 &= o0;
      c1 &= o1;
    }
    // Argmax maintenance.
    const std::uint64_t a0 = m0 & s0, a1 = m1 & s1;
    if ((a0 | a1) != 0) {
      // Some current leader scored: the maximum rises and only those keep it.
      ++max_score;
      m0 = a0;
      m1 = a1;
    } else {
      // Maximum unchanged; runners-up at M-1 that scored join the argmax.
      // Planes at or above bit_width(M) are all-zero (scores <= M) and
      // match M's zero bits there, so the equality scan can stop early.
      std::uint64_t e0 = ~std::uint64_t{0}, e1 = ~std::uint64_t{0};
      const std::size_t top = std::bit_width(max_score);
      for (std::size_t p = 0; p < top; ++p) {
        const std::uint64_t sel =
            (max_score >> p) & 1 ? ~std::uint64_t{0} : 0;
        e0 &= ~(plane[p][0] ^ sel);
        e1 &= ~(plane[p][1] ^ sel);
      }
      m0 = e0;
      m1 = e1;
    }
    h1 = (h1 << 1) | (h0 >> 63);
    h0 = (h0 << 1) | (actual ? 1u : 0u);
  }
  return global;
}

}  // namespace dhtrng::stats::kernels

namespace dhtrng::stats::sp800_90b {

namespace {

EstimatorResult from_predictions(std::string name,
                                 const kernels::PredictionScore& score) {
  EstimatorResult r;
  r.name = std::move(name);
  r.p_max = std::clamp(
      predictor_p_max(score.correct, score.total, score.longest_run), 1e-12,
      1.0);
  r.h_min = std::min(-std::log2(r.p_max), 1.0);
  return r;
}

}  // namespace

EstimatorResult multi_mcw(const BitStream& bits) {
  return from_predictions("Multi-MCW", kernels::multi_mcw_score(bits));
}

EstimatorResult lag(const BitStream& bits) {
  return from_predictions("Lag", kernels::lag_score(bits));
}

EstimatorResult multi_mmc(const BitStream& bits) {
  constexpr std::size_t kMaxDepth = 16;
  const std::size_t n = bits.size();
  if (n < kMaxDepth + 2) return from_predictions("Multi-MMC", {});

  // Per-depth Markov-model counts: counts[d][context][next].
  std::vector<std::vector<std::array<std::uint32_t, 2>>> counts(kMaxDepth);
  for (std::size_t d = 0; d < kMaxDepth; ++d) {
    counts[d].assign(std::size_t{1} << (d + 1), {0, 0});
  }
  std::array<std::size_t, kMaxDepth> score{};
  kernels::PredictionScore global;
  std::uint64_t history = 0;  // trailing bits, LSB = most recent
  for (std::size_t i = 0; i < n; ++i) {
    const bool actual = bits[i];
    if (i >= 2) {
      std::size_t leader = 0;
      for (std::size_t d = 0; d < kMaxDepth; ++d) {
        if (score[d] > score[leader]) leader = d;
      }
      // Global prediction from the leading depth's context counts.
      bool global_pred = false;
      bool global_valid = false;
      for (std::size_t d = 0; d < kMaxDepth; ++d) {
        if (i < d + 2) break;
        const std::uint64_t ctx = history & ((std::uint64_t{1} << (d + 1)) - 1);
        const auto& c = counts[d][ctx];
        const bool pred = c[1] >= c[0];
        const bool valid = (c[0] + c[1]) > 0;
        if (d == leader) {
          global_pred = pred;
          global_valid = valid;
        }
        if (valid && pred == actual) ++score[d];
      }
      global.observe(global_valid && global_pred == actual);
      // Update the models with the observed transition.
      for (std::size_t d = 0; d < kMaxDepth; ++d) {
        if (i < d + 1) break;
        const std::uint64_t ctx = history & ((std::uint64_t{1} << (d + 1)) - 1);
        ++counts[d][ctx][actual ? 1u : 0u];
      }
    } else if (i == 1) {
      const std::uint64_t ctx = history & 1u;
      ++counts[0][ctx][actual ? 1u : 0u];
    }
    history = (history << 1) | (actual ? 1u : 0u);
  }
  return from_predictions("Multi-MMC", global);
}

EstimatorResult lz78y(const BitStream& bits) {
  constexpr std::size_t kMaxDepth = 16;
  constexpr std::size_t kDictCapacity = 65536;
  const std::size_t n = bits.size();
  if (n < kMaxDepth + 2) return from_predictions("LZ78Y", {});

  // Dictionary: per depth, context -> next-bit counts, entries added only
  // while capacity remains (the LZ78-style growth rule).
  std::vector<std::vector<std::array<std::uint32_t, 2>>> counts(kMaxDepth);
  std::vector<std::vector<bool>> present(kMaxDepth);
  for (std::size_t d = 0; d < kMaxDepth; ++d) {
    counts[d].assign(std::size_t{1} << (d + 1), {0, 0});
    present[d].assign(std::size_t{1} << (d + 1), false);
  }
  std::size_t dict_size = 0;
  kernels::PredictionScore global;
  std::uint64_t history = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool actual = bits[i];
    if (i >= kMaxDepth + 1) {
      // Predict with the deepest present context (longest match heuristic).
      bool prediction = false;
      bool valid = false;
      for (std::size_t d = kMaxDepth; d-- > 0;) {
        const std::uint64_t ctx = history & ((std::uint64_t{1} << (d + 1)) - 1);
        if (present[d][ctx]) {
          const auto& c = counts[d][ctx];
          prediction = c[1] >= c[0];
          valid = true;
          break;
        }
      }
      global.observe(valid && prediction == actual);
      // Dictionary update.
      for (std::size_t d = 0; d < kMaxDepth; ++d) {
        const std::uint64_t ctx = history & ((std::uint64_t{1} << (d + 1)) - 1);
        if (!present[d][ctx]) {
          if (dict_size < kDictCapacity) {
            present[d][ctx] = true;
            ++dict_size;
            ++counts[d][ctx][actual ? 1u : 0u];
          }
        } else {
          ++counts[d][ctx][actual ? 1u : 0u];
        }
      }
    }
    history = (history << 1) | (actual ? 1u : 0u);
  }
  return from_predictions("LZ78Y", global);
}

}  // namespace dhtrng::stats::sp800_90b
