// Event-loop soak for the sharded readiness-loop core: 16 shards under a
// churning mixed workload — GET at every quality, STATS, CERT and
// SUBSCRIBE streams — from concurrent client threads that connect and
// disconnect at random.  Subscriptions are always ended with the clean
// UNSUBSCRIBE handshake (which drains every in-flight push), so the
// client-side byte tally is exact and the drained server's counters must
// match it to the byte.  Rides the TSan lane (`concurrency`) so the
// cross-shard handoff, the slot gauge and the metrics registry get
// data-race coverage.
#include <gtest/gtest.h>

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
#include "support/rng.h"

namespace dhtrng::service {
namespace {

using testsupport::IdealSource;
using testsupport::eventually;

/// Everything one worker thread observed; summed after the join, so no
/// synchronization is needed while the soak runs.
struct Tally {
  std::uint64_t connections = 0;
  std::uint64_t gets_ok = 0;
  std::uint64_t stats_requests = 0;
  std::uint64_t cert_requests = 0;
  std::uint64_t subscriptions = 0;
  std::uint64_t pushes = 0;
  std::uint64_t bytes[3] = {0, 0, 0};  // indexed by Quality

  void add(const Tally& other) {
    connections += other.connections;
    gets_ok += other.gets_ok;
    stats_requests += other.stats_requests;
    cert_requests += other.cert_requests;
    subscriptions += other.subscriptions;
    pushes += other.pushes;
    for (int q = 0; q < 3; ++q) bytes[q] += other.bytes[q];
  }
};

TEST(ServiceEventLoopSoak, SixteenShardMixedWorkloadBalancesExactly) {
  EntropyServerConfig cfg;
  cfg.shards = 16;
  cfg.max_connections = 128;
  cfg.pool.producers = 4;
  cfg.pool.buffer_bytes = 1 << 16;
  cfg.pool.block_bits = 1 << 12;
  EntropyServer server(cfg, [](std::size_t, std::uint64_t seed) {
    return std::make_unique<IdealSource>(seed);
  });

  constexpr int kThreads = 8;
  constexpr int kConnectionsPerThread = 30;

  std::vector<Tally> tallies(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server,
                          &tally = tallies[static_cast<std::size_t>(t)], t] {
      support::Xoshiro256 rng(0x50AC'0000u + static_cast<std::uint64_t>(t));
      for (int c = 0; c < kConnectionsPerThread; ++c) {
        auto client =
            EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());
        ++tally.connections;
        // One to four operations per connection, then disconnect — the
        // churn itself (accept/close across shards) is the exercise.
        const int ops = 1 + static_cast<int>(rng.below(4));
        for (int op = 0; op < ops; ++op) {
          const std::uint64_t dice = rng.below(100);
          if (dice < 55) {
            const auto quality =
                static_cast<Quality>(rng.below(3));
            const std::uint32_t n =
                1 + static_cast<std::uint32_t>(rng.below(512));
            const auto result = client.fetch(n, quality);
            ASSERT_TRUE(result.ok()) << result.detail;
            ASSERT_EQ(result.bytes.size(), n);
            ASSERT_FALSE(result.degraded);
            ++tally.gets_ok;
            tally.bytes[static_cast<int>(quality)] += n;
          } else if (dice < 70) {
            ASSERT_FALSE(client.stats().empty());
            ++tally.stats_requests;
          } else if (dice < 80) {
            ASSERT_FALSE(client.cert().empty());
            ++tally.cert_requests;
          } else {
            const auto quality =
                static_cast<Quality>(rng.below(3));
            const std::uint32_t chunk =
                16 + static_cast<std::uint32_t>(rng.below(49));
            ASSERT_TRUE(client.subscribe(chunk, 0, quality).ok());
            ++tally.subscriptions;
            const int reads = 1 + static_cast<int>(rng.below(3));
            for (int i = 0; i < reads; ++i) {
              const auto push = client.next_push();
              ASSERT_TRUE(push.ok()) << push.detail;
              ASSERT_EQ(push.bytes.size(), chunk);
              ++tally.pushes;
              tally.bytes[static_cast<int>(quality)] += chunk;
            }
            for (const auto& push : client.unsubscribe()) {
              ASSERT_TRUE(push.ok());
              ASSERT_EQ(push.bytes.size(), chunk);
              ++tally.pushes;
              tally.bytes[static_cast<int>(quality)] += chunk;
            }
          }
        }
        client.close();
      }
    });
  }
  for (auto& thread : threads) thread.join();

  Tally total;
  for (const auto& tally : tallies) total.add(tally);

  ASSERT_TRUE(
      eventually([&] { return server.active_connections() == 0; }, 20000))
      << "connection slots never drained";

  // Exact cross-check: the client threads were this server's only
  // traffic, every response was read and every subscription was ended
  // with the draining handshake, so each counter must match the tally.
  const auto& m = server.metrics();
  EXPECT_EQ(m.connections_accepted.load(), total.connections);
  EXPECT_EQ(m.connections_closed.load(), total.connections);
  EXPECT_EQ(m.subscriptions_opened.load(), total.subscriptions);
  EXPECT_EQ(m.subscriptions_closed.load(), total.subscriptions);
  EXPECT_EQ(m.subscriptions_active.load(), 0u);
  EXPECT_EQ(m.subscribe_pushes.load(), total.pushes);
  EXPECT_EQ(m.stats_requests.load(), total.stats_requests);
  EXPECT_EQ(m.cert_requests.load(), total.cert_requests);
  // Pushes and GETs share the served-bytes accounting (count_served).
  EXPECT_EQ(m.responses_ok.load(), total.gets_ok + total.pushes);
  EXPECT_EQ(m.bytes_served_raw.load(), total.bytes[0]);
  EXPECT_EQ(m.bytes_served_conditioned.load(), total.bytes[1]);
  EXPECT_EQ(m.bytes_served_drbg.load(), total.bytes[2]);
  EXPECT_EQ(m.bytes_served_total.load(),
            total.bytes[0] + total.bytes[1] + total.bytes[2]);
  // A healthy idle-free pool and generous slots: nothing was refused.
  EXPECT_EQ(m.responses_degraded.load(), 0u);
  EXPECT_EQ(m.responses_busy.load(), 0u);
  EXPECT_EQ(m.responses_rate_limited.load(), 0u);
  EXPECT_EQ(m.protocol_errors.load(), 0u);
  EXPECT_EQ(m.write_queue_overflows.load(), 0u);
  EXPECT_EQ(m.accept_fatal_errors.load(), 0u);
  // The event loop actually ran: wakeups happened and responses were
  // batched through the writev path.
  EXPECT_GT(m.epoll_wakeups.load(), 0u);
  EXPECT_GT(m.writev_calls.load(), 0u);
  EXPECT_GE(m.writev_frames.load(), m.writev_calls.load());

  server.stop();
  EXPECT_EQ(server.active_connections(), 0u);
}

}  // namespace
}  // namespace dhtrng::service
