// Post-processing / conditioning components.
//
// The paper's headline is that DH-TRNG passes the suites *without* any
// post-processing; prior designs often need one of these stages.  The
// library ships the three standard ones so users (and the ablation benches)
// can quantify the throughput cost the DH-TRNG design avoids:
//
//  * von Neumann extractor — unbiases at the cost of a 4x+ (input-dependent)
//    rate loss;
//  * XOR compressor — folds n raw bits into 1 (Eq. 4's bias reduction in
//    time instead of area);
//  * SHA-256 conditioner — the vetted conditioning component of
//    SP 800-90B 3.1.5.1 (full-entropy output blocks from > 2x entropy in).
#pragma once

#include <cstddef>

#include "support/bitstream.h"

namespace dhtrng::core {

/// Von Neumann extractor: consume bit pairs; 01 -> 0, 10 -> 1, 00/11 -> no
/// output.  Output is exactly unbiased for independent input bits.
support::BitStream von_neumann_extract(const support::BitStream& raw);

/// Peres (iterated von Neumann) extractor: recursively re-extracts from
/// the XOR sequence and the discarded equal pairs, approaching the input's
/// Shannon entropy rate (vs von Neumann's p(1-p) ceiling).  `depth` bounds
/// the recursion; 16 is effectively unbounded for practical inputs.
support::BitStream peres_extract(const support::BitStream& raw,
                                 std::size_t depth = 16);

/// XOR compressor: each output bit is the XOR of `fold` consecutive raw
/// bits (fold >= 1).  Reduces bias per the piling-up lemma at a fixed
/// fold-to-1 rate cost.
support::BitStream xor_compress(const support::BitStream& raw,
                                std::size_t fold);

/// SHA-256 conditioner: hash `input_block_bits` of raw input into 256-bit
/// output blocks.  For full-entropy output per SP 800-90B the input block
/// must carry at least 2x256 bits of assessed min-entropy — the caller
/// picks input_block_bits = ceil(512 / h_in).
support::BitStream sha256_condition(const support::BitStream& raw,
                                    std::size_t input_block_bits);

}  // namespace dhtrng::core
