// Service integration for the entropy-source zoo: every architecture the
// registry serves must ride the full degradation ladder (HEALTHY ->
// DEGRADED -> EXHAUSTED) and the online-certification verdict flip
// exactly like the DH-TRNG — the service layer is architecture-blind, and
// this battery is what enforces that.  Faults are injected by wrapping
// the real zoo sources in testsupport::DegradingSource, so the schedules
// are bit-exact per producer regardless of the physics underneath.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/zoo/zoo.h"
#include "service/client.h"
#include "service/entropy_server.h"
#include "stats/streaming.h"
#include "support/fault_sources.h"
#include "support/service_helpers.h"

namespace dhtrng::service {
namespace {

using stats::streaming::Snapshot;
using stats::streaming::SourceTracker;
using testsupport::DegradingSource;
using testsupport::kv_f64;
using testsupport::kv_u64;
using testsupport::parse_kv;
using testsupport::staggered_death_factory;

std::unique_ptr<core::TrngSource> zoo_source(const std::string& arch,
                                             std::uint64_t seed) {
  core::ZooOptions opt;
  opt.seed = seed;
  return core::make_zoo_source(arch, opt);
}

class ZooServiceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooServiceTest, HealthyServiceCertifiesClean) {
  EntropyServerConfig cfg;
  cfg.pool.producers = 2;
  cfg.pool.buffer_bytes = 1 << 13;
  cfg.pool.block_bits = 512;
  EntropyServer server(cfg, [&](std::size_t, std::uint64_t seed) {
    return zoo_source(GetParam(), seed);
  });
  auto client = EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());

  for (const Quality q :
       {Quality::Raw, Quality::Conditioned, Quality::Drbg}) {
    const auto result = client.fetch(200, q);
    ASSERT_TRUE(result.ok()) << GetParam() << " " << quality_name(q);
    EXPECT_EQ(result.bytes.size(), 200u);
    EXPECT_FALSE(result.degraded);
  }
  // Wait until both producers have certified at least one full window.
  for (int i = 0; i < 400; ++i) {
    const auto snap = server.pool_cert_snapshot();
    if (snap.producers.size() == 2 && snap.producers[0].windows > 0 &&
        snap.producers[1].windows > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // A healthy physical architecture certifies pass with live min-entropy
  // above the claim — the pass half of the verdict-flip contract.
  const auto cert = parse_kv(client.cert());
  EXPECT_EQ(cert.count("merged_bits"), 1u) << GetParam();
  EXPECT_EQ(kv_u64(cert, "merged_pass"), 1u) << GetParam();
  EXPECT_GT(kv_f64(cert, "merged_h_live"), 0.5) << GetParam();
  const auto stats = parse_kv(client.stats());
  EXPECT_EQ(kv_u64(stats, "pool_quarantines"), 0u) << GetParam();
  EXPECT_EQ(server.state(), ServiceState::Healthy);
}

TEST_P(ZooServiceTest, FullLadderHealthyToDegradedToExhausted) {
  // Producer 0's physics dies (stuck-at-0) after 16000 bits and every
  // rebuild is dead on arrival; producer 1 lives 32000 bits more from
  // that moment, then the same (fault_sources.h FaultLife).
  // max_reseeds = 1, so each producer gets one cure attempt before
  // retirement; the first retirement flips the ladder to DEGRADED and the
  // second to EXHAUSTED.  Identical structure to the DH-TRNG ladder test,
  // parameterized over the zoo.
  EntropyServerConfig cfg;
  cfg.pool.producers = 2;
  cfg.pool.buffer_bytes = 1024;
  cfg.pool.block_bits = 512;
  cfg.pool.max_reseeds = 1;
  cfg.shards = 2;
  cfg.drbg.reseed_interval = 1;

  const std::string arch = GetParam();
  EntropyServer server(
      cfg, staggered_death_factory(
               [arch](std::uint64_t seed) { return zoo_source(arch, seed); },
               16000, 32000));
  auto client = EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());

  EXPECT_EQ(server.state(), ServiceState::Healthy);

  std::uint64_t ok = 0, degraded = 0, exhausted = 0;
  int phase = 0;  // 0 = unflagged OK, 1 = flagged, 2 = exhausted
  for (int i = 0; i < 5000 && exhausted < 3; ++i) {
    const auto result = client.fetch(48, Quality::Raw);
    switch (result.status) {
      case Status::Ok:
        ASSERT_EQ(result.bytes.size(), 48u);
        if (result.degraded) {
          ++degraded;
          ASSERT_LE(phase, 1) << "flagged response after exhaustion";
          phase = 1;
        } else {
          ++ok;
          ASSERT_EQ(phase, 0) << "unflagged OK after degradation";
        }
        break;
      case Status::Exhausted:
        ++exhausted;
        phase = 2;
        EXPECT_FALSE(result.detail.empty());
        break;
      default:
        FAIL() << "unexpected status " << status_name(result.status);
    }
  }

  EXPECT_GT(ok, 0u) << GetParam() << ": never saw HEALTHY service";
  EXPECT_GT(degraded, 0u) << GetParam() << ": never saw DRBG fallback";
  EXPECT_GE(exhausted, 3u) << GetParam() << ": never saw exhaustion";
  EXPECT_EQ(server.state(), ServiceState::Exhausted);

  const auto stats = parse_kv(client.stats());
  EXPECT_EQ(stats.at("state"), "EXHAUSTED");
  EXPECT_EQ(kv_u64(stats, "pool_retired"), 2u);
  EXPECT_EQ(kv_u64(stats, "pool_healthy"), 0u);
  // Per producer: max_reseeds + 1 = 2 alarms, 1 cure attempt.
  EXPECT_EQ(kv_u64(stats, "pool_quarantines"), 4u);
  EXPECT_EQ(kv_u64(stats, "pool_reseeds"), 2u);
  EXPECT_GE(kv_u64(stats, "drbg_fallback_reseeds"), 1u);
}

TEST_P(ZooServiceTest, BiasCollapseFlipsCertVerdictWithoutHealthAlarm) {
  // The architecture collapses to Bernoulli(0.7) at bit 8192 — exactly a
  // window boundary.  The health gate's APT cutoff (h-claim 0.5) sits far
  // above the biased mean, so quarantines stay zero and the streaming
  // certification is the layer that must flip pass -> fail on the first
  // fully-biased window.  An offline replica of the identical wrapped
  // source pins the server-side tracker state exactly.
  constexpr std::uint64_t kFailAtBit = 8192;
  constexpr std::size_t kBlockBits = 512;
  constexpr std::size_t kBufferBytes = 2048;
  constexpr std::uint64_t kQuiescentBits =
      (kBufferBytes / (kBlockBits / 8) + 1) * kBlockBits;  // 33 blocks

  EntropyServerConfig cfg;
  cfg.pool.producers = 1;
  cfg.pool.buffer_bytes = kBufferBytes;
  cfg.pool.block_bits = kBlockBits;
  cfg.pool.min_entropy_per_bit = 0.5;

  std::uint64_t source_seed = 0;
  EntropyServer server(
      cfg,
      [&](std::size_t,
          std::uint64_t seed) -> std::unique_ptr<core::TrngSource> {
        source_seed = seed;  // first (and only) build; quarantines stay 0
        return std::make_unique<DegradingSource>(zoo_source(GetParam(), seed),
                                                 kFailAtBit, 0.7);
      });
  auto client = EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());

  core::PoolCertSnapshot live;
  for (int i = 0; i < 1000; ++i) {
    live = server.pool_cert_snapshot();
    if (live.merged.bits >= kQuiescentBits) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(live.merged.bits, kQuiescentBits) << GetParam();
  EXPECT_EQ(server.pool_snapshot().quarantines, 0u)
      << GetParam() << ": health gate alarmed; the fault is supposed to"
      << " slip past it and be caught by certification";

  // Offline replica: the zoo sources are deterministic per seed, so the
  // identically-wrapped source regenerates the very stream the producer
  // fed its tracker.
  DegradingSource replay(zoo_source(GetParam(), source_seed), kFailAtBit,
                         0.7);
  SourceTracker replica(live.tracker);
  std::vector<std::uint8_t> block(kBlockBits / 8);
  while (replica.bits() < kQuiescentBits) {
    for (auto& byte : block) {
      std::uint8_t v = 0;
      for (int b = 0; b < 8; ++b) {
        v = static_cast<std::uint8_t>((v << 1) |
                                      (replay.next_bit() ? 1u : 0u));
      }
      byte = v;
    }
    replica.feed_bytes(block.data(), block.size());
  }
  const Snapshot expected = replica.snapshot();
  EXPECT_EQ(live.merged.bits, expected.bits) << GetParam();
  EXPECT_EQ(live.merged.ones, expected.ones) << GetParam();
  EXPECT_EQ(live.merged.windows, expected.windows) << GetParam();
  EXPECT_EQ(live.merged.frequency_p, expected.frequency_p) << GetParam();
  EXPECT_EQ(live.merged.mcv_h, expected.mcv_h) << GetParam();
  EXPECT_EQ(live.merged.window_mcv_h_last, expected.window_mcv_h_last)
      << GetParam();

  // The verdict flip: the biased tail drags the windowed min-entropy
  // under the 0.5 claim.
  EXPECT_FALSE(live.merged.pass()) << GetParam();
  EXPECT_LT(live.merged.window_mcv_h_last, 0.5) << GetParam();
  const auto cert = parse_kv(client.cert());
  EXPECT_EQ(kv_u64(cert, "merged_pass"), 0u) << GetParam();
  const auto stats = parse_kv(client.stats());
  EXPECT_EQ(kv_u64(stats, "cert_pass"), 0u) << GetParam();
  EXPECT_EQ(kv_u64(stats, "pool_quarantines"), 0u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, ZooServiceTest,
                         ::testing::ValuesIn(core::zoo_source_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

}  // namespace
}  // namespace dhtrng::service
