#include "core/drbg.h"

#include <algorithm>

namespace dhtrng::core {

namespace {

std::vector<std::uint8_t> digest_to_vec(const support::Sha256::Digest& d) {
  return std::vector<std::uint8_t>(d.begin(), d.end());
}

}  // namespace

HmacDrbg::HmacDrbg(TrngSource& entropy_source, HmacDrbgConfig config,
                   const std::vector<std::uint8_t>& personalization)
    : source_(entropy_source),
      config_(config),
      key_(32, 0x00),
      v_(32, 0x01) {
  // Instantiate (10.1.2.3): seed_material = entropy || nonce || pers.
  std::vector<std::uint8_t> seed = pull_entropy(config_.entropy_input_bits);
  const std::vector<std::uint8_t> nonce = pull_entropy(config_.nonce_bits);
  seed.insert(seed.end(), nonce.begin(), nonce.end());
  seed.insert(seed.end(), personalization.begin(), personalization.end());
  hmac_update(seed);
  reseed_counter_ = 1;
}

std::vector<std::uint8_t> HmacDrbg::pull_entropy(std::size_t bits) {
  const support::BitStream raw = source_.generate(bits);
  return raw.to_bytes();
}

void HmacDrbg::hmac_update(const std::vector<std::uint8_t>& provided) {
  // K = HMAC(K, V || 0x00 || provided); V = HMAC(K, V).
  {
    support::HmacSha256 mac(key_);
    mac.update(v_);
    mac.update(std::uint8_t{0x00});
    mac.update(provided);
    key_ = digest_to_vec(mac.finish());
  }
  {
    support::HmacSha256 mac(key_);
    mac.update(v_);
    v_ = digest_to_vec(mac.finish());
  }
  if (provided.empty()) return;
  // K = HMAC(K, V || 0x01 || provided); V = HMAC(K, V).
  {
    support::HmacSha256 mac(key_);
    mac.update(v_);
    mac.update(std::uint8_t{0x01});
    mac.update(provided);
    key_ = digest_to_vec(mac.finish());
  }
  {
    support::HmacSha256 mac(key_);
    mac.update(v_);
    v_ = digest_to_vec(mac.finish());
  }
}

void HmacDrbg::reseed(const std::vector<std::uint8_t>& additional_input) {
  std::vector<std::uint8_t> seed = pull_entropy(config_.entropy_input_bits);
  seed.insert(seed.end(), additional_input.begin(), additional_input.end());
  hmac_update(seed);
  reseed_counter_ = 1;
  ++reseeds_;
}

void HmacDrbg::generate(std::uint8_t* out, std::size_t len,
                        const std::vector<std::uint8_t>& additional_input) {
  if (reseed_counter_ > config_.reseed_interval) reseed(additional_input);
  if (!additional_input.empty()) hmac_update(additional_input);

  std::size_t produced = 0;
  while (produced < len) {
    support::HmacSha256 mac(key_);
    mac.update(v_);
    v_ = digest_to_vec(mac.finish());
    const std::size_t take = std::min<std::size_t>(32, len - produced);
    std::copy(v_.begin(), v_.begin() + static_cast<long>(take),
              out + produced);
    produced += take;
  }
  hmac_update(additional_input);
  ++reseed_counter_;
}

std::vector<std::uint8_t> HmacDrbg::generate(std::size_t len) {
  std::vector<std::uint8_t> out(len);
  generate(out.data(), len);
  return out;
}

}  // namespace dhtrng::core
