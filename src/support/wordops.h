// Word-parallel building blocks shared by the statistical kernels
// (src/stats/kernels.h) and the streaming tracker.
//
// The byte tables summarise the ±1 random walk of eight bits at a time
// (bit set -> +1, clear -> -1): the net displacement plus the extreme
// partial sums over the byte's non-empty prefixes.  A walk kernel adds the
// running sum to the prefix extremes to recover the exact per-bit extremes
// without visiting individual bits.  Tables exist for both traversal
// orders because the cumulative-sums test walks the stream forward
// (LSB-first within a packed word) and backward (MSB-first).  Each entry
// also carries the byte's bit and adjacent-pair counts, so the streaming
// tracker steps a byte with table lookups instead of popcounts (which a
// baseline x86-64 build compiles to libgcc calls).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "support/bitstream.h"

namespace dhtrng::support::wordops {

struct ByteWalk {
  std::int8_t delta;       ///< sum of the eight ±1 steps
  std::int8_t max_prefix;  ///< max over the 8 non-empty prefix sums
  std::int8_t min_prefix;  ///< min over the 8 non-empty prefix sums
  std::uint8_t ones;         ///< set bits
  std::uint8_t transitions;  ///< adjacent pairs that differ (of 7)
  // Adjacent pairs (earlier bit -> later bit) in traversal order.
  std::uint8_t t11, t10, t01;
  bool first, last;  ///< first and last bit of the traversal
};

namespace detail {
constexpr std::array<ByteWalk, 256> make_walk_table(bool msb_first) {
  std::array<ByteWalk, 256> table{};
  for (int value = 0; value < 256; ++value) {
    int sum = 0;
    int max_prefix = -9;
    int min_prefix = 9;
    int ones = 0, t11 = 0, t10 = 0, t01 = 0;
    int prev = 0, first = 0;
    for (int step = 0; step < 8; ++step) {
      const int bit = msb_first ? (value >> (7 - step)) & 1 : (value >> step) & 1;
      sum += bit ? 1 : -1;
      if (sum > max_prefix) max_prefix = sum;
      if (sum < min_prefix) min_prefix = sum;
      ones += bit;
      if (step == 0) {
        first = bit;
      } else {
        t11 += prev & bit;
        t10 += prev & (bit ^ 1);
        t01 += (prev ^ 1) & bit;
      }
      prev = bit;
    }
    table[static_cast<std::size_t>(value)] = {
        static_cast<std::int8_t>(sum), static_cast<std::int8_t>(max_prefix),
        static_cast<std::int8_t>(min_prefix), static_cast<std::uint8_t>(ones),
        static_cast<std::uint8_t>(t10 + t01), static_cast<std::uint8_t>(t11),
        static_cast<std::uint8_t>(t10), static_cast<std::uint8_t>(t01),
        first != 0, prev != 0};
  }
  return table;
}
}  // namespace detail

/// Walk table for bits taken LSB-first (stream order within a packed word).
inline constexpr std::array<ByteWalk, 256> kWalkForward =
    detail::make_walk_table(false);
/// Walk table for bits taken MSB-first (reverse stream order).
inline constexpr std::array<ByteWalk, 256> kWalkBackward =
    detail::make_walk_table(true);

/// Set bits of `v` by the SWAR bit-count: the same integer as
/// std::popcount, without the libgcc call a baseline x86-64 build makes.
constexpr unsigned popcount64(std::uint64_t v) {
  v -= (v >> 1) & 0x5555555555555555ULL;
  v = (v & 0x3333333333333333ULL) + ((v >> 2) & 0x3333333333333333ULL);
  v = (v + (v >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<unsigned>((v * 0x0101010101010101ULL) >> 56);
}

/// Shift bits [begin, end) of the stream into `window`, one at a time and
/// MSB-first (each new bit enters at bit 0, older bits move up), keep the
/// low bits selected by `mask`, and call `emit(window)` after each bit.
/// The bits come 64 per chunk64 load.  Returns the final window.
template <typename Fn>
inline std::uint64_t feed_msb_first(const BitStream& bits, std::size_t begin,
                                    std::size_t end, std::uint64_t window,
                                    std::uint64_t mask, Fn&& emit) {
  for (std::size_t j = begin; j < end; j += 64) {
    std::uint64_t reg = bits.chunk64(j);
    const std::size_t take = std::min<std::size_t>(64, end - j);
    for (std::size_t k = 0; k < take; ++k) {
      window = ((window << 1) | (reg & 1u)) & mask;
      reg >>= 1;
      emit(window);
    }
  }
  return window;
}

/// Call `emit(value, length)` for each maximal run of identical bits in
/// [begin, begin + len) of the stream, in order.  Runs are consumed with
/// trailing-one counts on 64-bit chunks, so the cost is O(runs + len/64)
/// rather than one branch per bit.
template <typename Fn>
inline void for_each_run(const BitStream& bits, std::size_t begin,
                         std::size_t len, Fn&& emit) {
  std::size_t i = 0;
  while (i < len) {
    const bool v = bits.chunk64(begin + i) & 1;
    std::size_t j = i;
    while (j < len) {
      std::uint64_t x = bits.chunk64(begin + j);
      if (!v) x = ~x;  // count the run as trailing ones either way
      const std::size_t valid = std::min<std::size_t>(64, len - j);
      const std::size_t k = std::min<std::size_t>(
          static_cast<std::size_t>(std::countr_one(x)), valid);
      j += k;
      if (k < valid || valid < 64) break;  // run ended, or stream ended
    }
    emit(v, j - i);
    i = j;
  }
}

}  // namespace dhtrng::support::wordops
