// Deterministic random bit generator (SP 800-90A) seeded from a
// TrngSource — completing the root-of-trust stack the paper motivates:
//
//   DH-TRNG (entropy source) -> health tests -> DRBG -> applications
//
// HMAC_DRBG (10.1.2, over HMAC-SHA256) stretches the physical entropy to
// arbitrary volumes with prediction and backtracking resistance;
// reseeding pulls fresh TRNG output on demand or automatically every
// `reseed_interval` generate calls.
#pragma once

#include <cstdint>
#include <vector>

#include "core/trng.h"
#include "support/hmac.h"

namespace dhtrng::core {

struct HmacDrbgConfig {
  std::size_t entropy_input_bits = 384;   ///< seed entropy (>= 1.5x security)
  std::size_t nonce_bits = 128;
  std::uint64_t reseed_interval = 10000;  ///< generate calls between reseeds
};

class HmacDrbg {
 public:
  /// Instantiate from the entropy source (keeps the reference; the source
  /// must outlive the DRBG).  `personalization` is mixed into the seed.
  HmacDrbg(TrngSource& entropy_source, HmacDrbgConfig config = {},
           const std::vector<std::uint8_t>& personalization = {});

  /// Fill `out` with pseudorandom bytes.
  void generate(std::uint8_t* out, std::size_t len,
                const std::vector<std::uint8_t>& additional_input = {});
  std::vector<std::uint8_t> generate(std::size_t len);

  /// Pull fresh entropy from the source and re-key.
  void reseed(const std::vector<std::uint8_t>& additional_input = {});

  std::uint64_t reseed_counter() const { return reseed_counter_; }
  std::uint64_t reseed_count() const { return reseeds_; }

 private:
  void hmac_update(const std::vector<std::uint8_t>& provided);
  std::vector<std::uint8_t> pull_entropy(std::size_t bits);

  TrngSource& source_;
  HmacDrbgConfig config_;
  std::vector<std::uint8_t> key_;  // K
  std::vector<std::uint8_t> v_;    // V
  std::uint64_t reseed_counter_ = 0;
  std::uint64_t reseeds_ = 0;
};

}  // namespace dhtrng::core
