#include "support/berlekamp_massey.h"

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "support/bitstream.h"

namespace dhtrng::support {

std::size_t linear_complexity(const BitStream& bits, std::size_t begin,
                              std::size_t len) {
  if (len == 0) return 0;
  // Word-parallel Berlekamp-Massey.  The connection polynomials C and B are
  // kept bit-reversed within a width-len window (bit (len-1-i) holds
  // coefficient c_i), so the discrepancy
  //     d_n = XOR_{i=0..L} c_i * s_{n-i}
  // becomes a masked popcount-parity of S with C shifted right by
  // (len-1-n), and the update C ^= B * x^(n-m) becomes a right shift.
  // deg C <= L and deg B <= (L at the last length change), so both loops
  // only walk the words that support can reach — O(L/64) instead of
  // O(len/64) per step.
  const std::size_t words = (len + 63) / 64;
  constexpr std::size_t kStackWords = 64;  // blocks up to 4096 bits
  std::array<std::uint64_t, kStackWords> s_stack{}, c_stack{}, b_stack{},
      t_stack{};
  std::vector<std::uint64_t> heap;
  std::uint64_t *s, *c, *b, *t;
  if (words <= kStackWords) {
    s = s_stack.data(), c = c_stack.data(), b = b_stack.data(),
    t = t_stack.data();
  } else {
    heap.assign(4 * words, 0);
    s = heap.data(), c = s + words, b = c + words, t = b + words;
  }
  for (std::size_t w = 0; w < words; ++w) s[w] = bits.chunk64(begin + 64 * w);
  if ((len & 63) != 0) s[words - 1] &= (1ULL << (len & 63)) - 1;

  const auto set_top = [&](std::uint64_t* v) {
    v[(len - 1) >> 6] |= 1ULL << ((len - 1) & 63);
  };
  set_top(c);  // C(x) = 1
  set_top(b);  // B(x) = 1

  // dst ^= b >> shift, restricted to the dst bits B's support can reach
  // (B has coefficients 0..b_deg, i.e. window bits len-1-b_deg .. len-1).
  const auto xor_shifted_b = [&](std::size_t shift, std::size_t b_deg) {
    // shift >= len pushes even coefficient b_0 past the window: a no-op
    // (the reference's `i + shift < len` loop bound).  Reachable only on
    // the first discrepancy (m = -1), where shift = n + 1 can hit len.
    if (shift >= len) return;
    const std::size_t word_shift = shift >> 6;
    const unsigned bit_shift = static_cast<unsigned>(shift & 63);
    const std::size_t top = len - 1 - shift;
    const std::size_t bot = top >= b_deg ? top - b_deg : 0;
    for (std::size_t w = bot >> 6; w <= top >> 6; ++w) {
      std::uint64_t v = b[w + word_shift] >> bit_shift;
      if (bit_shift != 0 && w + word_shift + 1 < words) {
        v |= b[w + word_shift + 1] << (64 - bit_shift);
      }
      c[w] ^= v;
    }
  };

  std::size_t l = 0;
  std::size_t m = static_cast<std::size_t>(-1);  // -1; n - m wraps to n + 1
  std::size_t b_deg = 0;                         // support bound of B
  for (std::size_t n = 0; n < len; ++n) {
    // d_n: C >> (len-1-n) aligns coefficient c_{n-j} with s_j; the product
    // is nonzero only for j in [n-l, n].
    const std::size_t shift = len - 1 - n;
    const std::size_t word_shift = shift >> 6;
    const unsigned bit_shift = static_cast<unsigned>(shift & 63);
    const std::size_t lo = n >= l ? (n - l) >> 6 : 0;
    const std::size_t hi = n >> 6;
    std::uint64_t acc = 0;
    for (std::size_t w = lo; w <= hi; ++w) {
      std::uint64_t v = 0;
      if (w + word_shift < words) {
        v = c[w + word_shift] >> bit_shift;
        if (bit_shift != 0 && w + word_shift + 1 < words) {
          v |= c[w + word_shift + 1] << (64 - bit_shift);
        }
      }
      acc ^= s[w] & v;
    }
    if ((std::popcount(acc) & 1) == 0) continue;

    if (2 * l <= n) {
      for (std::size_t w = 0; w < words; ++w) t[w] = c[w];
      xor_shifted_b(n - m, b_deg);
      std::swap(b, t);  // B := previous C
      b_deg = l;
      l = n + 1 - l;
      m = n;
    } else {
      xor_shifted_b(n - m, b_deg);
    }
  }
  return l;
}

}  // namespace dhtrng::support
