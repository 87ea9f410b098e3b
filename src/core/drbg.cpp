#include "core/drbg.h"

#include <algorithm>
#include <stdexcept>

#include "support/hmac.h"

namespace dhtrng::core {

namespace {

std::vector<std::uint8_t> digest_to_vec(const support::Sha256::Digest& d) {
  return std::vector<std::uint8_t>(d.begin(), d.end());
}

}  // namespace

HmacDrbg::HmacDrbg(Bytes entropy_input, Bytes nonce, HmacDrbgConfig config,
                   Bytes personalization)
    : config_(config), key_(32, 0x00), v_(32, 0x01) {
  if (config_.reseed_interval == 0) {
    throw std::invalid_argument("HmacDrbg: reseed_interval == 0");
  }
  hmac_update({entropy_input, nonce, personalization});
  reseed_counter_ = 1;
}

void HmacDrbg::hmac_update(std::initializer_list<Bytes> provided) {
  // K = HMAC(K, V || tag || provided); V = HMAC(K, V).
  const auto step = [&](std::uint8_t tag) {
    {
      support::HmacSha256 mac(key_);
      mac.update(v_);
      mac.update(tag);
      for (const Bytes part : provided) mac.update(part.data(), part.size());
      key_ = digest_to_vec(mac.finish());
    }
    support::HmacSha256 mac(key_);
    mac.update(v_);
    v_ = digest_to_vec(mac.finish());
  };
  step(0x00);
  // The second step only when `provided` is non-empty.
  for (const Bytes part : provided) {
    if (!part.empty()) {
      step(0x01);
      return;
    }
  }
}

void HmacDrbg::reseed(Bytes entropy_input, Bytes additional) {
  hmac_update({entropy_input, additional});
  reseed_counter_ = 1;
}

void HmacDrbg::generate(std::uint8_t* out, std::size_t len,
                        Bytes additional) {
  if (reseed_required()) {
    throw std::logic_error("HmacDrbg: reseed required");
  }
  if (!additional.empty()) hmac_update({additional});

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
  hmac_update({additional});
  ++reseed_counter_;
}

std::vector<std::uint8_t> HmacDrbg::generate(std::size_t len) {
  std::vector<std::uint8_t> out(len);
  generate(out.data(), len);
  return out;
}

}  // namespace dhtrng::core
