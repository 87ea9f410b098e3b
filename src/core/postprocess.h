// Post-processing / conditioning components.
//
// The paper's headline is that DH-TRNG passes the suites *without* any
// post-processing; prior designs often need one of these stages.  The
// library ships the three standard ones so users (and the ablation benches)
// can quantify the throughput cost the DH-TRNG design avoids:
//
//  * Peres (iterated von Neumann) extractor — unbiases at an
//    input-dependent rate loss; depth 1 is the von Neumann extractor;
//  * XOR compressor — folds n raw bits into 1 (Eq. 4's bias reduction in
//    time instead of area);
//  * SHA-256 conditioner — the vetted conditioning component of
//    SP 800-90B 3.1.5.1, and the one conditioner of both the service's
//    CONDITIONED draw and `trng_tool --post=sha256`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "support/bitstream.h"
#include "support/sha256.h"

namespace dhtrng::core {

/// Peres (iterated von Neumann) extractor: recursively re-extracts from
/// the XOR sequence and the discarded equal pairs, approaching the input's
/// Shannon entropy rate (vs von Neumann's p(1-p) ceiling).  `depth` bounds
/// the recursion; 16 is effectively unbounded for practical inputs.
/// Depth 1 is the von Neumann extractor: bit pairs 10 -> 1, 01 -> 0,
/// 00/11 -> no output.
support::BitStream peres_extract(const support::BitStream& raw,
                                 std::size_t depth = 16);

/// XOR compressor: each output bit is the XOR of `fold` consecutive raw
/// bits (fold >= 1).  Reduces bias per the piling-up lemma at a fixed
/// fold-to-1 rate cost.
support::BitStream xor_compress(const support::BitStream& raw,
                                std::size_t fold);

/// Raw input bytes per 256-bit SHA-256 output block: 512 input bits per
/// 256 output bits.  SP 800-90C counts the output as full-entropy when the
/// input carries at least 256 + 64 bits of entropy, so this rate assumes
/// H >= 320 / 512 = 0.625 bits per raw bit.
inline constexpr std::size_t kConditionInputBytes = 64;

/// SHA-256 conditioner, one block: the digest of one input block.
support::Sha256::Digest sha256_condition_block(
    std::span<const std::uint8_t, kConditionInputBytes> input);

/// SHA-256 conditioner over a bit stream: packs `raw` MSB-first and
/// conditions each whole input block; a trailing partial block yields
/// nothing.  Output bits are the digests' bytes, MSB-first.
support::BitStream sha256_condition(const support::BitStream& raw);

}  // namespace dhtrng::core
