// Berlekamp–Massey over GF(2): shortest LFSR generating a bit block.
// Used by the SP 800-22 linear complexity test.
#pragma once

#include <cstddef>

namespace dhtrng::support {

class BitStream;

/// Linear complexity (length of the shortest LFSR) of bits
/// [begin, begin + len) of the stream.  Word-parallel: connection
/// polynomials live in 64-bit words (stack-allocated up to 4096 bits), the
/// block is packed via chunk64, and the discrepancy / update loops touch
/// only the words the polynomial support can reach.
std::size_t linear_complexity(const BitStream& bits, std::size_t begin,
                              std::size_t len);

}  // namespace dhtrng::support
