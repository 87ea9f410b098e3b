// Non-blocking pool hand-off in the service: a GET that finds the pool
// short parks on its connection instead of blocking its shard.  With one
// shard and a pool held empty by a latch (testsupport::StallingSource),
// these tests pin down the lifecycle:
//  * other connections on the same shard are answered while a GET parks;
//  * frames pipelined behind the parked GET wait for it (FIFO replies);
//  * the one block that covers the GET rings the shard's doorbell (the
//    producer is then held again, so the ring cannot come from a full
//    pool) and the GET completes with exactly n bytes, counted once;
//  * stop() answers a parked GET with exactly one ShuttingDown response;
//  * GETs larger than the pool buffer fill across many hand-offs and
//    still serve the source stream in order.
// Labelled `concurrency`: the shard, the producer and the test thread
// race on the pool, so this suite rides the TSan lane.
#include <gtest/gtest.h>
#include <poll.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/client.h"
#include "service/entropy_server.h"
#include "support/fault_sources.h"
#include "support/sha256.h"

namespace dhtrng::service {
namespace {

using testsupport::IdealSource;
using testsupport::Latch;
using testsupport::StallingSource;

constexpr std::uint32_t kGetBytes = 4096;

template <typename Predicate>
bool eventually(Predicate done, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

std::map<std::string, std::string> parse_kv(const std::string& text) {
  std::map<std::string, std::string> kv;
  std::istringstream in(text);
  std::string key, value;
  while (in >> key >> value) kv[key] = value;
  return kv;
}

std::uint64_t kv_u64(const std::map<std::string, std::string>& kv,
                     const std::string& key) {
  const auto it = kv.find(key);
  EXPECT_NE(it, kv.end()) << "missing key: " << key;
  return it == kv.end() ? ~std::uint64_t{0} : std::stoull(it->second);
}

/// Read one response frame off a raw socket; nullopt on EOF/closure.
std::optional<Response> read_response(Socket& sock) {
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

bool readable_within(const Socket& sock, int timeout_ms) {
  pollfd p{sock.fd(), POLLIN, 0};
  return ::poll(&p, 1, timeout_ms) > 0;
}

void send_frames(Socket& sock, const std::vector<std::uint8_t>& a,
                 const std::vector<std::uint8_t>& b = {}) {
  std::vector<std::uint8_t> both = a;
  both.insert(both.end(), b.begin(), b.end());
  ASSERT_TRUE(sock.write_all(both.data(), both.size()));
}

/// Opens the latch for good on scope exit (declared after the server, so
/// it runs first): the server's destructor joins the producer, which must
/// not be left waiting for permits when an assertion bails out early.
struct OpenOnExit {
  std::shared_ptr<Latch> latch;
  ~OpenOnExit() { latch->release(); }
};

/// One shard, one producer whose source is held by `latch`.  A block is
/// exactly one 4 KiB GET, so one released block covers the parked GET and
/// the doorbell rings exactly once.
std::unique_ptr<EntropyServer> stalled_server(std::shared_ptr<Latch> latch) {
  EntropyServerConfig cfg;
  cfg.shards = 1;
  cfg.pool.producers = 1;
  cfg.pool.block_bits = kGetBytes * 8;
  cfg.pool.buffer_bytes = 2 * kGetBytes;
  return std::make_unique<EntropyServer>(
      cfg, [latch](std::size_t, std::uint64_t seed)
               -> std::unique_ptr<core::TrngSource> {
        return std::make_unique<StallingSource>(seed, latch);
      });
}

TEST(ServicePark, ParkedGetStallsNeitherShardNorOrder) {
  auto latch = std::make_shared<Latch>();
  auto server = stalled_server(latch);
  const OpenOnExit open_on_exit{latch};
  const Metrics& m = server->metrics();

  Socket parked = connect_tcp("127.0.0.1", server->tcp_port());
  ASSERT_TRUE(parked.valid());
  send_frames(parked, encode_get_request(Quality::Raw, kGetBytes),
              encode_stats_request());
  ASSERT_TRUE(eventually([&] { return m.pool_parked_gets.load() == 1; }));

  // The shard is free: a second connection is served while the pool is
  // empty (a shard blocked in the pool would hang both calls forever).
  auto other = EntropyClient::connect_tcp("127.0.0.1", server->tcp_port());
  const auto before = parse_kv(other.stats());
  EXPECT_EQ(kv_u64(before, "pool_parked_gets"), 1u);
  EXPECT_EQ(kv_u64(before, "pool_doorbell_wakeups"), 0u);
  EXPECT_EQ(kv_u64(before, "bytes_served_raw"), 0u);
  EXPECT_NE(other.cert().find("cert_enabled 1"), std::string::npos);

  // Nothing comes back on the parked connection: not the GET, and not
  // the STATS pipelined behind it.
  EXPECT_FALSE(readable_within(parked, 100));

  latch->release(kGetBytes * 8);  // exactly one block
  const auto get = read_response(parked);
  ASSERT_TRUE(get.has_value());
  EXPECT_EQ(get->status, Status::Ok);
  EXPECT_EQ(get->payload.size(), kGetBytes);
  const auto stats = read_response(parked);
  ASSERT_TRUE(stats.has_value());
  ASSERT_EQ(stats->status, Status::Ok);
  const auto after = parse_kv(
      std::string(stats->payload.begin(), stats->payload.end()));
  EXPECT_EQ(kv_u64(after, "bytes_served_raw"), kGetBytes);
  EXPECT_EQ(kv_u64(after, "pool_parked_gets"), 1u);
  EXPECT_EQ(kv_u64(after, "pool_doorbell_wakeups"), 1u);

  EXPECT_EQ(m.bytes_served_raw.load(), kGetBytes);
  EXPECT_EQ(m.responses_ok.load(), 1u);
  EXPECT_EQ(m.stats_requests.load(), 2u);
  EXPECT_EQ(m.cert_requests.load(), 1u);
  EXPECT_EQ(m.pool_parked_gets.load(), 1u);
  EXPECT_EQ(m.pool_doorbell_wakeups.load(), 1u);
}

TEST(ServicePark, StopWhileParkedAnswersExactlyOnceWithShuttingDown) {
  auto latch = std::make_shared<Latch>();
  auto server = stalled_server(latch);
  const OpenOnExit open_on_exit{latch};
  const Metrics& m = server->metrics();

  Socket parked = connect_tcp("127.0.0.1", server->tcp_port());
  ASSERT_TRUE(parked.valid());
  send_frames(parked, encode_get_request(Quality::Raw, kGetBytes));
  ASSERT_TRUE(eventually([&] { return m.pool_parked_gets.load() == 1; }));

  // stop() closes the pool (ringing the doorbell) and then joins the
  // producer, which stays stuck in the latch until released below — the
  // parked GET must be answered without waiting for it.
  std::thread stopper([&] { server->stop(); });
  const auto reply = read_response(parked);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::ShuttingDown);
  EXPECT_FALSE(read_response(parked).has_value());  // then EOF
  latch->release();
  stopper.join();

  EXPECT_EQ(m.responses_shutting_down.load(), 1u);
  EXPECT_EQ(m.responses_ok.load(), 0u);
  EXPECT_EQ(m.bytes_served_raw.load(), 0u);
  EXPECT_EQ(server->active_connections(), 0u);
}

TEST(ServicePark, GetsLargerThanBufferServeTheSourceStreamInOrder) {
  // 64-byte blocks into a 1 KiB buffer: a 16 KiB GET parks and resumes
  // across many hand-offs, keeping its partial payload each time.
  constexpr std::size_t kRaw = 16384;
  constexpr std::size_t kConditioned = 100;
  EntropyServerConfig cfg;
  cfg.shards = 1;
  cfg.pool.producers = 1;
  cfg.pool.block_bits = 512;
  cfg.pool.buffer_bytes = 1024;
  std::uint64_t source_seed = 0;  // set in the constructor, before threads
  EntropyServer server(cfg, [&](std::size_t, std::uint64_t seed)
                                -> std::unique_ptr<core::TrngSource> {
    source_seed = seed;
    return std::make_unique<IdealSource>(seed);
  });
  auto client = EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());
  const auto raw = client.fetch(kRaw, Quality::Raw);
  ASSERT_TRUE(raw.ok());
  const auto conditioned = client.fetch(kConditioned, Quality::Conditioned);
  ASSERT_TRUE(conditioned.ok());
  ASSERT_EQ(server.pool_snapshot().quarantines, 0u);

  // Replay: the raw GET is the source stream packed MSB-first; the
  // conditioned GET hashes the next 64-byte chunks of the same stream.
  IdealSource replay(source_seed);
  const auto next_bytes = [&](std::size_t n) {
    std::vector<std::uint8_t> out(n);
    for (auto& byte : out) {
      for (int b = 0; b < 8; ++b) {
        byte = static_cast<std::uint8_t>((byte << 1) |
                                         (replay.next_bit() ? 1u : 0u));
      }
    }
    return out;
  };
  EXPECT_EQ(raw.bytes, next_bytes(kRaw));
  std::vector<std::uint8_t> expected;
  while (expected.size() < kConditioned) {
    const auto digest = support::Sha256::hash(next_bytes(64));
    expected.insert(expected.end(), digest.begin(), digest.end());
  }
  expected.resize(kConditioned);
  EXPECT_EQ(conditioned.bytes, expected);

  const Metrics& m = server.metrics();
  EXPECT_EQ(m.bytes_served_raw.load(), kRaw);
  EXPECT_EQ(m.bytes_served_conditioned.load(), kConditioned);
  EXPECT_GE(m.pool_parked_gets.load(), 1u);
  EXPECT_LE(m.pool_parked_gets.load(), 2u);  // at most once per GET
  EXPECT_GE(m.pool_doorbell_wakeups.load(), m.pool_parked_gets.load());
}

}  // namespace
}  // namespace dhtrng::service
