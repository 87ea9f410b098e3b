// Deterministic random bit generator (SP 800-90A), completing the
// root-of-trust stack the paper motivates:
//
//   DH-TRNG (entropy source) -> health tests -> DRBG -> applications
//
// HMAC_DRBG (10.1.2, over HMAC-SHA256) stretches the physical entropy to
// arbitrary volumes with prediction and backtracking resistance.  The
// mechanism takes its entropy input as bytes: SP 800-90A leaves
// Get_entropy_input outside the DRBG, so the caller gathers
// kEntropyInputBytes (and, to instantiate, kNonceBytes more) from the
// entropy source however suits it — a blocking read, or a pool draw that
// parks.  After `reseed_interval` generate calls reseed_required() turns
// true and generate refuses until the caller reseeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace dhtrng::core {

struct HmacDrbgConfig {
  std::uint64_t reseed_interval = 10000;  ///< generate calls between reseeds
};

class HmacDrbg {
 public:
  using Bytes = std::span<const std::uint8_t>;

  /// Entropy input per instantiate/reseed: 384 bits (>= 1.5x security).
  static constexpr std::size_t kEntropyInputBytes = 48;
  /// Instantiation nonce: 128 bits.
  static constexpr std::size_t kNonceBytes = 16;

  /// Instantiate (10.1.2.3): seed material = entropy_input || nonce ||
  /// personalization.  Throws std::invalid_argument for a zero
  /// reseed_interval.
  HmacDrbg(Bytes entropy_input, Bytes nonce, HmacDrbgConfig config = {},
           Bytes personalization = {});

  /// Fill `out` with pseudorandom bytes.  Throws std::logic_error when
  /// reseed_required() (SP 800-90A 9.3.1 "reseed required").
  void generate(std::uint8_t* out, std::size_t len, Bytes additional = {});
  std::vector<std::uint8_t> generate(std::size_t len);

  /// Re-key from fresh entropy input (10.1.2.4).
  void reseed(Bytes entropy_input, Bytes additional = {});

  /// True once `reseed_interval` generate calls ran since the last
  /// (re)seed.
  bool reseed_required() const {
    return reseed_counter_ > config_.reseed_interval;
  }

 private:
  void hmac_update(std::initializer_list<Bytes> provided);

  HmacDrbgConfig config_;
  std::vector<std::uint8_t> key_;  // K
  std::vector<std::uint8_t> v_;    // V
  std::uint64_t reseed_counter_ = 0;
};

}  // namespace dhtrng::core
