// SUBSCRIBE push-stream tests: byte-for-byte equivalence with GET against
// identically-seeded servers, frozen-clock rate-limit and cadence
// exactness, degradation-ladder transitions ending in the kFlagPush-
// flagged Exhausted frame, slot reclamation on abrupt disconnect, and the
// clean UNSUBSCRIBE handshake that returns the connection to ordinary
// request/response use.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "service/client.h"
#include "service/entropy_server.h"
#include "support/fault_sources.h"

namespace dhtrng::service {
namespace {

using testsupport::IdealSource;
using testsupport::eventually;
using testsupport::ideal_factory;
using testsupport::staggered_death_factory;

std::map<std::string, std::uint64_t> parse_counters(const std::string& text) {
  std::map<std::string, std::uint64_t> counters;
  std::istringstream in(text);
  std::string key, value;
  while (in >> key >> value) {
    if (key != "state" && !value.empty() && std::isdigit(value[0]) != 0) {
      counters[key] = std::stoull(value);
    }
  }
  return counters;
}

/// Single-producer, single-shard server config: with one shard and one
/// client the order of pool draws is fully determined by the request
/// stream, which the byte-for-byte test depends on.
EntropyServerConfig deterministic_config() {
  EntropyServerConfig cfg;
  cfg.pool.producers = 1;
  cfg.pool.buffer_bytes = 1 << 14;
  cfg.pool.block_bits = 512;
  cfg.shards = 1;
  cfg.clock = [] { return std::uint64_t{0}; };  // frozen
  return cfg;
}

// ----------------------------------------------------------- equivalence

TEST(ServiceSubscribe, PushStreamMatchesGetByteForByte) {
  // Two identically-seeded servers: server A answers eight 64-byte GETs,
  // server B pushes 64-byte chunks on a subscription.  Same pool, same
  // draw sizes, same order -> the concatenated entropy must be identical,
  // proving SUBSCRIBE is a pure delivery-mechanism change.
  EntropyServer get_server(deterministic_config(), ideal_factory());
  EntropyServer push_server(deterministic_config(), ideal_factory());

  constexpr std::size_t kChunk = 64;
  constexpr std::size_t kChunks = 8;

  std::vector<std::uint8_t> via_get;
  auto get_client =
      EntropyClient::connect_tcp("127.0.0.1", get_server.tcp_port());
  for (std::size_t i = 0; i < kChunks; ++i) {
    const auto r = get_client.fetch(kChunk, Quality::Raw);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.bytes.size(), kChunk);
    EXPECT_FALSE(r.degraded);
    via_get.insert(via_get.end(), r.bytes.begin(), r.bytes.end());
  }

  std::vector<std::uint8_t> via_push;
  auto push_client =
      EntropyClient::connect_tcp("127.0.0.1", push_server.tcp_port());
  const auto ack = push_client.subscribe(kChunk, /*interval_ms=*/0);
  ASSERT_TRUE(ack.ok()) << ack.detail;
  while (via_push.size() < kChunk * kChunks) {
    const auto push = push_client.next_push();
    ASSERT_TRUE(push.ok()) << push.detail;
    ASSERT_TRUE(push.push);
    ASSERT_EQ(push.bytes.size(), kChunk);
    EXPECT_FALSE(push.degraded);
    via_push.insert(via_push.end(), push.bytes.begin(), push.bytes.end());
  }
  push_client.unsubscribe();  // further pushes exist; stream ends cleanly

  EXPECT_EQ(via_push, via_get);
}

// ------------------------------------------------- rate-limit exactness

TEST(ServiceSubscribe, FrozenClockRateLimitGrantsExactlyTheBurst) {
  // A frozen clock means the per-connection bucket never refills: the
  // stream must deliver exactly floor(burst / chunk) pushes and then
  // defer forever — never a partial chunk, never a RateLimited response.
  auto cfg = deterministic_config();
  cfg.per_conn_rate_bytes_per_s = 1;  // enabled; frozen clock: no refill
  cfg.per_conn_burst_bytes = 1024;
  EntropyServer server(cfg, ideal_factory());
  auto client = EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());

  constexpr std::uint32_t kChunk = 96;           // 1024 / 96 = 10 pushes,
  constexpr std::uint64_t kExpectedPushes = 10;  // 64 tokens stranded
  ASSERT_TRUE(client.subscribe(kChunk, 0).ok());
  for (std::uint64_t i = 0; i < kExpectedPushes; ++i) {
    const auto push = client.next_push();
    ASSERT_TRUE(push.ok()) << "push " << i << ": " << push.detail;
    ASSERT_EQ(push.bytes.size(), kChunk);
  }
  // The eleventh push needs 96 tokens against 64 remaining: deferred.
  EXPECT_FALSE(client.try_next_push(300).has_value());

  const auto& m = server.metrics();
  EXPECT_EQ(m.subscribe_pushes.load(), kExpectedPushes);
  EXPECT_EQ(m.subscribe_push_bytes.load(), kExpectedPushes * kChunk);
  EXPECT_EQ(m.bytes_served_total.load(), kExpectedPushes * kChunk);
  EXPECT_GE(m.subscribe_deferred_rate.load(), 1u);
  // Deferral is cadence, not refusal: no RateLimited frame was sent.
  EXPECT_EQ(m.responses_rate_limited.load(), 0u);
  // Pushes land in the ordinary served-response accounting.
  EXPECT_EQ(m.responses_ok.load(), kExpectedPushes);

  // The stream is stalled, not broken: UNSUBSCRIBE still answers.
  const auto drained = client.unsubscribe();
  EXPECT_TRUE(drained.empty());
  client.close();
  EXPECT_TRUE(eventually([&] { return server.active_connections() == 0; }));
}

// ------------------------------------------------------- push cadence

TEST(ServiceSubscribe, FrozenClockCadencePushesOnlyWhenDue) {
  // interval_ms > 0 under an injectable clock: exactly one push per
  // advance of the clock past the due time, no matter how much wall time
  // the shard loop spends spinning.
  std::atomic<std::uint64_t> now_ns{0};
  auto cfg = deterministic_config();
  cfg.clock = [&now_ns] { return now_ns.load(); };
  EntropyServer server(cfg, ideal_factory());
  auto client = EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());

  ASSERT_TRUE(client.subscribe(32, /*interval_ms=*/1000).ok());
  // The first push is due immediately on subscription.
  const auto first = client.try_next_push(5000);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->bytes.size(), 32u);
  // The clock is frozen short of the next due time: no second push.
  EXPECT_FALSE(client.try_next_push(300).has_value());

  now_ns.store(1'000'000'000);  // next push becomes due
  const auto second = client.try_next_push(5000);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->bytes.size(), 32u);
  EXPECT_FALSE(client.try_next_push(300).has_value());

  now_ns.store(2'500'000'000);  // past due again (due was 2.0s)
  const auto third = client.try_next_push(5000);
  ASSERT_TRUE(third.has_value());
  EXPECT_FALSE(client.try_next_push(300).has_value());

  EXPECT_EQ(server.metrics().subscribe_pushes.load(), 3u);
  client.unsubscribe();
  client.close();
  EXPECT_TRUE(eventually([&] { return server.active_connections() == 0; }));
}

// ------------------------------------------------- degradation ladder

TEST(ServiceSubscribe, LadderEndsStreamWithPushFlaggedExhaustedFrame) {
  // Same fault schedule as the GET ladder test: producer 0 dies after
  // 40000 bits, producer 1 80000 bits after that, every rebuild after a
  // death dead.  A subscription must walk the whole ladder — unflagged
  // pushes, then kFlagDegraded pushes, then ONE kFlagPush-flagged
  // Exhausted error frame that ends the stream and closes the connection.
  EntropyServerConfig cfg;
  cfg.pool.producers = 2;
  cfg.pool.buffer_bytes = 1024;
  cfg.pool.block_bits = 512;
  cfg.pool.max_reseeds = 1;
  cfg.shards = 2;
  cfg.drbg.reseed_interval = 1;  // degraded pushes keep pumping the pool

  EntropyServer server(
      cfg, staggered_death_factory(
               [](std::uint64_t seed) {
                 return std::make_unique<IdealSource>(seed);
               },
               40000, 80000));
  auto client = EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());

  ASSERT_TRUE(client.subscribe(48, /*interval_ms=*/0).ok());
  std::uint64_t healthy = 0, degraded = 0;
  int phase = 0;  // 0 = unflagged, 1 = degraded, 2 = exhausted
  for (int i = 0; i < 20000; ++i) {
    const auto push = client.next_push();
    ASSERT_TRUE(push.push) << "non-push frame mid-stream";
    if (push.status == Status::Exhausted) {
      phase = 2;
      EXPECT_FALSE(push.detail.empty());
      break;
    }
    ASSERT_TRUE(push.ok()) << push.detail;
    ASSERT_EQ(push.bytes.size(), 48u);
    if (push.degraded) {
      ASSERT_LE(phase, 1) << "data push after exhaustion";
      phase = 1;
      ++degraded;
    } else {
      ASSERT_EQ(phase, 0) << "unflagged push after degradation";
      ++healthy;
    }
  }
  EXPECT_GT(healthy, 0u) << "never saw HEALTHY pushes";
  EXPECT_GT(degraded, 0u) << "never saw flagged DRBG-fallback pushes";
  EXPECT_EQ(phase, 2) << "stream never ended with the Exhausted frame";

  // The server closes the connection after the stream-ending frame.
  EXPECT_THROW(client.next_push(), ProtocolError);
  EXPECT_TRUE(eventually([&] { return server.active_connections() == 0; }));
  const auto& m = server.metrics();
  EXPECT_EQ(m.subscriptions_active.load(), 0u);
  EXPECT_EQ(m.subscriptions_closed.load(), 1u);
  EXPECT_EQ(m.subscribe_pushes.load(), healthy + degraded);
  EXPECT_EQ(m.subscribe_pushes_degraded.load(), degraded);
  EXPECT_EQ(server.state(), ServiceState::Exhausted);
}

// ------------------------------------------------------ slot reclamation

TEST(ServiceSubscribe, AbruptDisconnectReclaimsSubscriptionAndSlot) {
  auto cfg = deterministic_config();
  EntropyServer server(cfg, ideal_factory());
  {
    auto client =
        EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());
    ASSERT_TRUE(client.subscribe(64, 0).ok());
    ASSERT_TRUE(client.next_push().ok());  // the stream is live
    client.close();  // vanish without UNSUBSCRIBE, pushes in flight
  }
  EXPECT_TRUE(eventually([&] { return server.active_connections() == 0; }));
  EXPECT_TRUE(eventually(
      [&] { return server.metrics().subscriptions_active.load() == 0; }));
  const auto& m = server.metrics();
  EXPECT_EQ(m.subscriptions_opened.load(), 1u);
  EXPECT_EQ(m.subscriptions_closed.load(), 1u);

  // The slot is genuinely free: a fresh subscriber gets a full stream.
  auto again = EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());
  ASSERT_TRUE(again.subscribe(64, 0).ok());
  ASSERT_TRUE(again.next_push().ok());
  again.unsubscribe();
  again.close();
  EXPECT_TRUE(eventually([&] { return server.active_connections() == 0; }));
}

// ------------------------------------------------- UNSUBSCRIBE handshake

TEST(ServiceSubscribe, CleanUnsubscribeReturnsConnectionToRequestResponse) {
  auto cfg = deterministic_config();
  EntropyServer server(cfg, ideal_factory());
  auto client = EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());

  ASSERT_TRUE(client.subscribe(32, 0).ok());
  std::uint64_t pushes = 0;
  for (int i = 0; i < 3; ++i) {
    const auto push = client.next_push();
    ASSERT_TRUE(push.ok());
    ASSERT_EQ(push.bytes.size(), 32u);
    ++pushes;
  }
  // unsubscribe() drains the in-flight pushes before the ack, so the
  // client-side byte accounting stays exact.
  const auto drained = client.unsubscribe();
  for (const auto& push : drained) {
    ASSERT_TRUE(push.ok());
    ASSERT_EQ(push.bytes.size(), 32u);
    ++pushes;
  }

  // After the ack the connection is plain request/response again; the
  // push counters have quiesced and must agree with the client's tally.
  const auto counters = parse_counters(client.stats());
  EXPECT_EQ(counters.at("subscribe_pushes"), pushes);
  EXPECT_EQ(counters.at("subscribe_push_bytes"), pushes * 32);
  EXPECT_EQ(counters.at("subscriptions_opened"), 1u);
  EXPECT_EQ(counters.at("subscriptions_closed"), 1u);
  EXPECT_EQ(counters.at("subscriptions_active"), 0u);

  const auto fetched = client.fetch(128, Quality::Conditioned);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.bytes.size(), 128u);

  // Re-subscribing on the same connection opens a second stream.
  ASSERT_TRUE(client.subscribe(16, 0).ok());
  ASSERT_TRUE(client.next_push().ok());
  client.unsubscribe();
  client.close();
  EXPECT_TRUE(eventually([&] { return server.active_connections() == 0; }));
  EXPECT_EQ(server.metrics().subscriptions_opened.load(), 2u);
  EXPECT_EQ(server.metrics().subscriptions_closed.load(), 2u);
}

TEST(ServiceSubscribe, StructuredRefusals) {
  auto cfg = deterministic_config();
  cfg.max_request_bytes = 1024;
  EntropyServer server(cfg, ideal_factory());

  {  // a zero-byte chunk can never make progress: refused up front
    auto client =
        EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());
    const auto ack = client.subscribe(0, 0);
    EXPECT_EQ(ack.status, Status::BadRequest);
    EXPECT_NE(ack.detail.find("zero-byte"), std::string::npos);
    // The refusal is protocol-level, not a protocol error: the same
    // connection still serves.
    EXPECT_TRUE(client.fetch(16).ok());
  }
  {  // chunk above the per-request budget
    auto client =
        EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());
    const auto ack = client.subscribe(2048, 0);
    EXPECT_EQ(ack.status, Status::TooLarge);
    EXPECT_FALSE(ack.detail.empty());
  }
  {  // UNSUBSCRIBE with no stream open
    auto client =
        EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());
    EXPECT_THROW(client.unsubscribe(), ProtocolError);
  }
  {  // double SUBSCRIBE: one stream per connection.  A long interval
     // quiesces the pushes so the refusal is the next frame on the wire.
    auto client =
        EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());
    ASSERT_TRUE(client.subscribe(32, 3'600'000).ok());
    ASSERT_TRUE(client.next_push().ok());  // the immediate first push
    const auto ack = client.subscribe(32, 0);
    EXPECT_EQ(ack.status, Status::BadRequest);
    EXPECT_NE(ack.detail.find("already subscribed"), std::string::npos);
    client.unsubscribe();
  }
  EXPECT_TRUE(eventually([&] { return server.active_connections() == 0; }));
  EXPECT_EQ(server.metrics().protocol_errors.load(), 0u);
}

}  // namespace
}  // namespace dhtrng::service
