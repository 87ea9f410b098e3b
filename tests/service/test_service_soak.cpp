// Concurrency soak (labels: slow, concurrency — the TSan CI lane runs
// this): 16 clients hammer one server with 1000 mixed-quality requests
// each over loopback, with a per-connection token bucket small enough to
// guarantee rejections.  The bucket clock is frozen, so every connection
// gets exactly its burst budget and not a byte more — which makes the
// accounting identity exact: bytes served == bytes requested minus
// rate-limited rejections, matched against the server's own STATS.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/client.h"
#include "service/entropy_server.h"
#include "support/fault_sources.h"

namespace dhtrng::service {
namespace {

constexpr std::size_t kClients = 16;
constexpr std::size_t kRequestsPerClient = 1000;
constexpr std::uint64_t kPerConnBurst = 16 * 1024;

/// Deterministic request schedule for (client, i): size in [16, 128],
/// quality cycling through all three.
std::size_t request_size(std::size_t client, std::size_t i) {
  return 16 + (client * 131 + i * 17) % 113;
}

Quality request_quality(std::size_t client, std::size_t i) {
  return static_cast<Quality>((client * 7 + i) % 3);
}

struct ClientTally {
  std::uint64_t requested_bytes = 0;
  std::uint64_t ok_count = 0;
  std::uint64_t ok_bytes = 0;
  std::uint64_t rate_limited = 0;
  std::uint64_t unexpected = 0;  ///< any status other than Ok/RateLimited
  std::uint64_t wrong_size = 0;  ///< Ok responses with bytes.size() != n
};

TEST(ServiceSoak, SixteenClientsThousandMixedRequestsExactAccounting) {
  EntropyServerConfig cfg;
  cfg.pool.producers = 4;
  cfg.pool.buffer_bytes = 1 << 16;
  cfg.pool.block_bits = 512;
  cfg.shards = kClients;
  cfg.max_connections = kClients + 4;
  // Frozen clock: buckets never refill, so each connection serves exactly
  // as many bytes as fit in its burst and rejects the rest.
  cfg.per_conn_rate_bytes_per_s = 1;
  cfg.per_conn_burst_bytes = kPerConnBurst;
  cfg.clock = [] { return std::uint64_t{0}; };

  EntropyServer server(cfg, [](std::size_t, std::uint64_t seed) {
    return std::make_unique<testsupport::IdealSource>(seed);
  });

  std::vector<ClientTally> tallies(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &tallies, &server] {
      ClientTally& tally = tallies[c];
      auto client =
          EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());
      for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
        const std::size_t n = request_size(c, i);
        tally.requested_bytes += n;
        const auto result = client.fetch(static_cast<std::uint32_t>(n),
                                         request_quality(c, i));
        if (result.status == Status::Ok) {
          ++tally.ok_count;
          tally.ok_bytes += result.bytes.size();
          if (result.bytes.size() != n) ++tally.wrong_size;
        } else if (result.status == Status::RateLimited) {
          ++tally.rate_limited;
        } else {
          ++tally.unexpected;
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();

  std::uint64_t requested = 0, ok_count = 0, ok_bytes = 0, rejected = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    const ClientTally& tally = tallies[c];
    // No frame interleaving and no stray statuses: every Ok response
    // carried exactly the bytes its own request asked for (fetch()
    // validates frame shape; wrong_size would flag cross-talk).
    EXPECT_EQ(tally.unexpected, 0u) << "client " << c;
    EXPECT_EQ(tally.wrong_size, 0u) << "client " << c;
    // The burst budget guarantees both outcomes appear on every
    // connection: ~72 KB requested against a 16 KB budget.
    EXPECT_GT(tally.ok_bytes, 0u) << "client " << c;
    EXPECT_GT(tally.rate_limited, 0u) << "client " << c;
    EXPECT_LE(tally.ok_bytes, kPerConnBurst) << "client " << c;
    EXPECT_EQ(tally.ok_count + tally.rate_limited, kRequestsPerClient)
        << "client " << c;
    requested += tally.requested_bytes;
    ok_count += tally.ok_count;
    ok_bytes += tally.ok_bytes;
    rejected += tally.rate_limited;
  }

  // The accounting identity, byte-exact: all-or-nothing token acquisition
  // means a request is either served in full or rejected with zero bytes.
  EXPECT_EQ(ok_count + rejected, kClients * kRequestsPerClient);

  // Server-side STATS must match the client-side tallies exactly.
  auto stats_client =
      EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());
  std::map<std::string, std::string> stats;
  {
    std::istringstream in(stats_client.stats());
    std::string key, value;
    while (in >> key >> value) stats[key] = value;
  }
  EXPECT_EQ(stats["state"], "HEALTHY");
  EXPECT_EQ(stats["responses_ok"], std::to_string(ok_count));
  EXPECT_EQ(stats["responses_rate_limited"], std::to_string(rejected));
  EXPECT_EQ(stats["bytes_served_total"], std::to_string(ok_bytes));
  EXPECT_EQ(stats["responses_degraded"], "0");
  EXPECT_EQ(stats["responses_exhausted"], "0");
  EXPECT_EQ(stats["protocol_errors"], "0");
  const std::uint64_t by_quality =
      std::stoull(stats["bytes_served_raw"]) +
      std::stoull(stats["bytes_served_conditioned"]) +
      std::stoull(stats["bytes_served_drbg"]);
  EXPECT_EQ(by_quality, ok_bytes);

  // Connection slots drain once the clients are gone.
  stats_client.close();
  for (int i = 0; i < 1000 && server.active_connections() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.active_connections(), 0u);
  EXPECT_EQ(
      server.metrics().connections_closed.load(std::memory_order_acquire),
      server.metrics().connections_accepted.load(std::memory_order_acquire));
}

}  // namespace
}  // namespace dhtrng::service
