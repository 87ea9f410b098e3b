#include "core/postprocess.h"

#include <stdexcept>
#include <vector>

namespace dhtrng::core {

support::BitStream peres_extract(const support::BitStream& raw,
                                 std::size_t depth) {
  if (depth == 0 || raw.size() < 2) return {};
  support::BitStream out;
  support::BitStream xors;       // a_i ^ b_i per pair (recursed)
  support::BitStream discards;   // value of each equal pair (recursed)
  out.reserve(raw.size() / 4);
  xors.reserve(raw.size() / 2);
  for (std::size_t i = 0; i + 1 < raw.size(); i += 2) {
    const bool a = raw[i];
    const bool b = raw[i + 1];
    xors.push_back(a != b);
    if (a != b) {
      out.push_back(a);
    } else {
      discards.push_back(a);
    }
  }
  out.append(peres_extract(xors, depth - 1));
  out.append(peres_extract(discards, depth - 1));
  return out;
}

support::BitStream xor_compress(const support::BitStream& raw,
                                std::size_t fold) {
  if (fold == 0) throw std::invalid_argument("xor_compress: fold == 0");
  support::BitStream out;
  out.reserve(raw.size() / fold);
  for (std::size_t i = 0; i + fold <= raw.size(); i += fold) {
    bool acc = false;
    for (std::size_t j = 0; j < fold; ++j) acc ^= raw[i + j];
    out.push_back(acc);
  }
  return out;
}

support::Sha256::Digest sha256_condition_block(
    std::span<const std::uint8_t, kConditionInputBytes> input) {
  support::Sha256 sha;
  sha.update(input.data(), input.size());
  return sha.finish();
}

support::BitStream sha256_condition(const support::BitStream& raw) {
  const std::vector<std::uint8_t> bytes = raw.to_bytes();
  std::vector<std::uint8_t> out;
  // Whole bytes only: to_bytes() zero-pads a partial final byte.
  for (std::size_t at = 0; at + kConditionInputBytes <= raw.size() / 8;
       at += kConditionInputBytes) {
    const auto digest = sha256_condition_block(
        std::span(bytes).subspan(at).first<kConditionInputBytes>());
    out.insert(out.end(), digest.begin(), digest.end());
  }
  return support::BitStream::from_bytes(out);
}

}  // namespace dhtrng::core
