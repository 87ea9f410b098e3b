// Degradation-ladder integration tests: a loopback client drives one
// server through HEALTHY -> DEGRADED -> EXHAUSTED by injecting
// deterministic fault sources through the pool's SourceFactory, asserting
// the flagged DRBG fallback responses, the structured exhausted error,
// and that the STATS counters match the client-observed transitions
// exactly.
#include <gtest/gtest.h>

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
using testsupport::ideal_factory;
using testsupport::staggered_death_factory;

/// Parse the plaintext STATS dump into a key -> value map (numeric values
/// only; the `state` line is kept as a string).
struct ParsedStats {
  std::string state;
  std::map<std::string, std::uint64_t> counters;

  std::uint64_t at(const std::string& key) const {
    const auto it = counters.find(key);
    EXPECT_NE(it, counters.end()) << "missing STATS key: " << key;
    return it == counters.end() ? ~std::uint64_t{0} : it->second;
  }
};

ParsedStats parse_stats(const std::string& text) {
  ParsedStats parsed;
  std::istringstream in(text);
  std::string key, value;
  while (in >> key >> value) {
    if (key == "state") {
      parsed.state = value;
    } else if (!value.empty() && std::isdigit(value[0]) != 0) {
      parsed.counters[key] = std::stoull(value);
    }
    // Other text-valued lines (simd_tier, noise_mode) are not counters.
  }
  return parsed;
}

TEST(ServiceDegradation, HealthyServesAllQualitiesAndAttributesBytes) {
  EntropyServerConfig cfg;
  cfg.pool.producers = 2;
  cfg.pool.buffer_bytes = 1 << 14;
  cfg.pool.block_bits = 512;
  EntropyServer server(cfg, ideal_factory());
  auto client = EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());

  for (const Quality q :
       {Quality::Raw, Quality::Conditioned, Quality::Drbg}) {
    const auto result = client.fetch(300, q);
    ASSERT_TRUE(result.ok()) << quality_name(q);
    EXPECT_EQ(result.bytes.size(), 300u);
    EXPECT_FALSE(result.degraded);
  }
  const ParsedStats stats = parse_stats(client.stats());
  EXPECT_EQ(stats.state, "HEALTHY");
  EXPECT_EQ(stats.at("bytes_served_total"), 900u);
  EXPECT_EQ(stats.at("bytes_served_raw"), 300u);
  EXPECT_EQ(stats.at("bytes_served_conditioned"), 300u);
  EXPECT_EQ(stats.at("bytes_served_drbg"), 300u);
  EXPECT_EQ(stats.at("responses_ok"), 3u);
  EXPECT_EQ(stats.at("responses_degraded"), 0u);
  EXPECT_EQ(stats.at("pool_retired"), 0u);
}

TEST(ServiceDegradation, FullLadderHealthyToDegradedToExhausted) {
  // Producer 0's noise dies after 40000 bits (5 KB of healthy output) and
  // every rebuild is dead: one reseed attempt, then retirement flips the
  // ladder to DEGRADED.  Producer 1 lives 80000 more bits from that
  // moment; once it retires too, the ladder reads EXHAUSTED and the
  // service fails closed.  The schedules are bit counts shared by each
  // producer's rebuilds (fault_sources.h FaultLife) — wall clock only
  // decides how fast the client pumps the pool through them.
  EntropyServerConfig cfg;
  cfg.pool.producers = 2;
  cfg.pool.buffer_bytes = 1024;
  cfg.pool.block_bits = 512;
  cfg.pool.max_reseeds = 1;
  cfg.shards = 2;
  // Make every degraded DRBG draw pull fresh pool entropy so the client's
  // fetch loop keeps pumping producer 1 toward its own failure point.
  cfg.drbg.reseed_interval = 1;

  EntropyServer server(
      cfg, staggered_death_factory(
               [](std::uint64_t seed) {
                 return std::make_unique<IdealSource>(seed);
               },
               40000, 80000));
  auto client = EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());

  EXPECT_EQ(server.state(), ServiceState::Healthy);

  // Tally every GET by its observed outcome; the ladder is monotone
  // (retirements only accumulate), so the observed phase sequence must be
  // monotone too.
  std::uint64_t ok = 0, degraded = 0, exhausted = 0, bytes_ok = 0;
  int phase = 0;  // 0 = unflagged OK, 1 = flagged, 2 = exhausted
  bool saw_exhausted_detail = false;
  for (int i = 0; i < 5000 && exhausted < 3; ++i) {
    const auto result = client.fetch(48, Quality::Raw);
    switch (result.status) {
      case Status::Ok:
        ASSERT_EQ(result.bytes.size(), 48u);
        bytes_ok += result.bytes.size();
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
        saw_exhausted_detail = true;
        break;
      default:
        FAIL() << "unexpected status " << status_name(result.status);
    }
  }

  // All three ladder states were observed end to end.
  EXPECT_GT(ok, 0u) << "never saw HEALTHY service";
  EXPECT_GT(degraded, 0u) << "never saw flagged DRBG fallback";
  EXPECT_GE(exhausted, 3u) << "never saw the structured exhausted error";
  EXPECT_TRUE(saw_exhausted_detail);
  EXPECT_EQ(server.state(), ServiceState::Exhausted);

  // Exhaustion is sticky and structured, not a hang or a dropped
  // connection: the same connection keeps answering.
  const auto refused = client.fetch(16, Quality::Drbg);
  EXPECT_EQ(refused.status, Status::Exhausted);
  ++exhausted;

  // STATS must agree with the client-side tally exactly — the client is
  // the only GET traffic this server ever saw.
  const ParsedStats stats = parse_stats(client.stats());
  EXPECT_EQ(stats.state, "EXHAUSTED");
  EXPECT_EQ(stats.at("responses_ok"), ok);
  EXPECT_EQ(stats.at("responses_degraded"), degraded);
  EXPECT_EQ(stats.at("responses_exhausted"), exhausted);
  EXPECT_EQ(stats.at("bytes_served_total"), bytes_ok);
  EXPECT_EQ(stats.at("bytes_served_raw"), bytes_ok);
  EXPECT_EQ(stats.at("responses_rate_limited"), 0u);
  EXPECT_EQ(stats.at("protocol_errors"), 0u);
  EXPECT_EQ(stats.at("pool_producers"), 2u);
  EXPECT_EQ(stats.at("pool_healthy"), 0u);
  EXPECT_EQ(stats.at("pool_retired"), 2u);
  EXPECT_EQ(stats.at("pool_exhausted"), 1u);
  // Each producer: max_reseeds + 1 = 2 alarms at its death, 1 cure
  // attempt.  Producer 1 also alarms once by chance on its first source
  // (a 25-bit run at bit 28,417 of the stream for pool seed 1, over the
  // RCT cutoff of 24 at h = 0.9); its rebuild carries on healthy.
  EXPECT_EQ(stats.at("pool_quarantines"), 5u);
  EXPECT_EQ(stats.at("pool_reseeds"), 3u);
  // Entering DEGRADED re-keyed the fallback DRBG from the survivors.
  EXPECT_GE(stats.at("drbg_fallback_reseeds"), 1u);

  const core::PoolHealthSnapshot snap = server.pool_snapshot();
  EXPECT_TRUE(snap.exhausted);
  EXPECT_EQ(snap.quarantines, 5u);
}

}  // namespace
}  // namespace dhtrng::service
