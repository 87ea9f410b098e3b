// Readers of the entropy service's replies for the service tests: the
// plaintext STATS/CERT dump as a key -> value map, and one response frame
// read off a raw socket.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "service/socket.h"

namespace dhtrng::testsupport {

/// Parse a plaintext STATS/CERT dump into raw key -> string values.
inline std::map<std::string, std::string> parse_kv(const std::string& text) {
  std::map<std::string, std::string> kv;
  std::istringstream in(text);
  std::string key, value;
  while (in >> key >> value) kv[key] = value;
  return kv;
}

inline std::uint64_t kv_u64(const std::map<std::string, std::string>& kv,
                            const std::string& key) {
  const auto it = kv.find(key);
  EXPECT_NE(it, kv.end()) << "missing key: " << key;
  return it == kv.end() ? ~std::uint64_t{0} : std::stoull(it->second);
}

inline double kv_f64(const std::map<std::string, std::string>& kv,
                     const std::string& key) {
  const auto it = kv.find(key);
  EXPECT_NE(it, kv.end()) << "missing key: " << key;
  return it == kv.end() ? -1.0 : std::stod(it->second);
}

/// Read one response frame off a raw socket; nullopt on EOF/closure.
inline std::optional<service::Response> read_response(service::Socket& sock) {
  using namespace service;
  std::uint8_t header[kLenPrefixBytes];
  if (!sock.read_exact(header, sizeof(header))) return std::nullopt;
  const std::uint32_t len = read_u32le(header);
  if (len < kResponseHeaderBytes || len > (1u << 26)) return std::nullopt;
  std::vector<std::uint8_t> payload(len);
  if (!sock.read_exact(payload.data(), payload.size())) return std::nullopt;
  Response resp;
  if (!decode_response_payload(payload.data(), payload.size(), resp)) {
    return std::nullopt;
  }
  return resp;
}

}  // namespace dhtrng::testsupport
