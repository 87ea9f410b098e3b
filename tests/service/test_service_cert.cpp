// Service-level tests for the online-certification path: the CERT
// protocol verb end to end (loopback client -> EntropyServer ->
// EntropyPool trackers), the live cert lines appended to STATS, and a
// fault-injection test that pins the pass -> fail flip to the exact bit
// of the fault schedule by replaying the producer's gated stream through
// an offline tracker replica.
//
// Determinism: with no GET traffic the producer fills the buffer and
// blocks mid-push, so the number of health-gated blocks its tracker has
// seen is exactly floor(buffer_bytes / block_bytes) + 1 — the fault test
// waits for that fixed point and then compares against the replica
// bit-for-bit (doubles included).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/client.h"
#include "service/entropy_server.h"
#include "service/metrics.h"
#include "stats/streaming.h"
#include "support/fault_sources.h"
#include "support/service_helpers.h"

namespace dhtrng::service {
namespace {

using stats::streaming::Snapshot;
using stats::streaming::SourceTracker;
using testsupport::BiasedSource;
using testsupport::IdealSource;
using testsupport::ideal_factory;
using testsupport::kv_f64;
using testsupport::kv_u64;
using testsupport::parse_kv;

TEST(ServiceCert, CertVerbReportsPerSourceAndMergedSnapshots) {
  EntropyServerConfig cfg;
  cfg.pool.producers = 2;
  cfg.pool.buffer_bytes = 1 << 14;
  cfg.pool.block_bits = 512;
  EntropyServer server(cfg, ideal_factory());
  auto client = EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());

  // Pull some bytes so production is certainly underway, then wait for
  // both producers to have contributed at least one full window each
  // (they free-run until the 16 KiB buffer backpressures them).
  ASSERT_TRUE(client.fetch(2048, Quality::Raw).ok());
  for (int i = 0; i < 400; ++i) {
    const auto snap = server.pool_cert_snapshot();
    if (snap.producers.size() == 2 && snap.producers[0].windows > 0 &&
        snap.producers[1].windows > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const auto cert = parse_kv(client.cert());
  EXPECT_EQ(cert.count("merged_bits"), 1u);
  EXPECT_EQ(kv_u64(cert, "cert_sources"), 2u);
  // block_bits = 512 clamps the default geometry (128, 1024) to (128, 512).
  EXPECT_EQ(kv_u64(cert, "cert_block_len"), 128u);
  EXPECT_EQ(kv_u64(cert, "cert_window_bits"), 512u);
  EXPECT_EQ(kv_f64(cert, "cert_min_entropy"), 0.5);
  EXPECT_GT(kv_f64(cert, "cert_alpha"), 0.0);

  // The merged view is exactly the concatenation of the per-source
  // trackers, snapshotted under their locks inside one CERT request — so
  // the bit counts add up exactly even while production continues.
  const std::uint64_t merged_bits = kv_u64(cert, "merged_bits");
  EXPECT_EQ(merged_bits,
            kv_u64(cert, "source_0_bits") + kv_u64(cert, "source_1_bits"));
  EXPECT_GE(merged_bits, 2048u * 8u);
  EXPECT_EQ(merged_bits % 512u, 0u);  // trackers hold whole blocks only

  // Ideal sources certify clean: every section passes and claims
  // reasonable live min-entropy.
  for (const std::string prefix : {"merged", "source_0", "source_1"}) {
    EXPECT_EQ(kv_u64(cert, prefix + "_pass"), 1u) << prefix;
    EXPECT_GT(kv_f64(cert, prefix + "_h_live"), 0.5) << prefix;
    EXPECT_GE(kv_f64(cert, prefix + "_frequency_p"), 1e-6) << prefix;
    EXPECT_GT(kv_u64(cert, prefix + "_windows"), 0u) << prefix;
  }

  // STATS carries the live summary lines and counted the CERT request.
  const auto stats = parse_kv(client.stats());
  EXPECT_EQ(kv_u64(stats, "cert_requests"), 1u);
  EXPECT_EQ(kv_u64(stats, "cert_pass"), 1u);
  EXPECT_GT(kv_f64(stats, "cert_h_live"), 0.5);
  EXPECT_EQ(kv_u64(stats, "pool_source_0_pass"), 1u);
  EXPECT_EQ(kv_u64(stats, "pool_source_1_pass"), 1u);
  EXPECT_GT(kv_u64(stats, "pool_source_0_bits"), 0u);
}

// An empty tracker has no entropy to claim, and claims +0: no CERT line
// renders as "-0".
TEST(ServiceCert, EmptyTrackerRendersNoNegativeZero) {
  core::PoolCertSnapshot cert;
  cert.producers.push_back(SourceTracker().snapshot());
  cert.merged = SourceTracker().snapshot();
  const auto kv = parse_kv(render_cert(cert));
  std::size_t h_lines = 0;
  for (const auto& [key, value] : kv) {
    if (key.find("_h") == std::string::npos) continue;
    ++h_lines;
    EXPECT_NE(value.front(), '-') << key << " " << value;
    EXPECT_FALSE(std::signbit(std::stod(value))) << key;
  }
  EXPECT_EQ(h_lines, 2u * 7u);  // h_live, mcv, markov and four window lines
}

TEST(ServiceCert, BiasFaultCrossesCertThresholdAtExactWindow) {
  // Producer 0 degrades from Bernoulli(1/2) to Bernoulli(0.7) at bit
  // 8192 — exactly a block boundary.  With an h-claim of 0.5 the APT
  // cutoff sits far above the biased window mean, so the health gate
  // keeps passing every block (quarantines stay 0) and the *streaming
  // certification* is the layer that must catch the fault: the first
  // fully-biased 512-bit window estimates h ~ 0.41 < 0.5 and flips
  // pass to false.
  constexpr std::uint64_t kFailAtBit = 8192;
  constexpr std::size_t kBlockBits = 512;
  constexpr std::size_t kBufferBytes = 2048;
  // With no consumer, the producer generates floor(buffer/block) + 1
  // blocks (it blocks mid-push of the last one after its tracker feed).
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
      [&](std::size_t, std::uint64_t seed)
          -> std::unique_ptr<core::TrngSource> {
        source_seed = seed;  // first (and only) build; quarantines stay 0
        return std::make_unique<BiasedSource>(seed, kFailAtBit, 0.7);
      });
  auto client = EntropyClient::connect_tcp("127.0.0.1", server.tcp_port());

  // Wait for the deterministic fixed point: producer blocked mid-push,
  // tracker holding exactly kQuiescentBits.
  core::PoolCertSnapshot live;
  for (int i = 0; i < 400; ++i) {
    live = server.pool_cert_snapshot();
    if (live.merged.bits >= kQuiescentBits) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(live.merged.bits, kQuiescentBits);
  EXPECT_EQ(server.pool_snapshot().quarantines, 0u)
      << "health gate alarmed; the schedule is supposed to slip past it";

  // Offline replica: regenerate the identical source stream, pack it
  // MSB-first exactly like the producer loop, and feed a tracker with the
  // server's effective geometry.  Every field must match bit-for-bit.
  BiasedSource replay(source_seed, kFailAtBit, 0.7);
  SourceTracker replica(live.tracker);
  std::uint64_t flip_bit = 0;  // first bit count where pass() goes false
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
    if (flip_bit == 0 && !replica.snapshot().pass()) {
      flip_bit = replica.bits();
    }
  }

  const Snapshot expected = replica.snapshot();
  const Snapshot& merged = live.merged;
  EXPECT_EQ(merged.bits, expected.bits);
  EXPECT_EQ(merged.ones, expected.ones);
  EXPECT_EQ(merged.runs_v, expected.runs_v);
  EXPECT_EQ(merged.cusum_fwd_peak, expected.cusum_fwd_peak);
  EXPECT_EQ(merged.cusum_bwd_peak, expected.cusum_bwd_peak);
  EXPECT_EQ(merged.blocks, expected.blocks);
  EXPECT_EQ(merged.block_sum_sq, expected.block_sum_sq);
  EXPECT_EQ(merged.markov_t11, expected.markov_t11);
  EXPECT_EQ(merged.markov_t10, expected.markov_t10);
  EXPECT_EQ(merged.markov_t01, expected.markov_t01);
  EXPECT_EQ(merged.windows, expected.windows);
  EXPECT_EQ(merged.frequency_p, expected.frequency_p);
  EXPECT_EQ(merged.block_frequency_p, expected.block_frequency_p);
  EXPECT_EQ(merged.runs_p, expected.runs_p);
  EXPECT_EQ(merged.cusum_fwd_p, expected.cusum_fwd_p);
  EXPECT_EQ(merged.cusum_bwd_p, expected.cusum_bwd_p);
  EXPECT_EQ(merged.mcv_h, expected.mcv_h);
  EXPECT_EQ(merged.markov_h, expected.markov_h);
  EXPECT_EQ(merged.window_mcv_h_last, expected.window_mcv_h_last);
  EXPECT_EQ(merged.window_markov_h_last, expected.window_markov_h_last);
  EXPECT_EQ(merged.window_mcv_h_min, expected.window_mcv_h_min);
  EXPECT_EQ(merged.window_markov_h_min, expected.window_markov_h_min);

  // The pass -> fail flip lands exactly at the completion of the first
  // fully-biased window: fault at bit 8192, window 16 spans [8192, 8704),
  // and the replica (fed block-at-a-time like the producer) first fails
  // at the 17th block boundary, 8704 bits.
  EXPECT_EQ(flip_bit, kFailAtBit + live.tracker.window_bits);
  EXPECT_FALSE(merged.pass());
  EXPECT_LT(merged.window_mcv_h_last, 0.5);
  EXPECT_GT(merged.window_mcv_h_min, 0.0);

  // The healthy prefix still looks healthy in the cumulative kernels'
  // valid flags — the *windowed* estimate is what caught the fault.
  EXPECT_TRUE(merged.mcv_valid);

  // CERT text must round-trip the exact doubles (max_digits10) and agree
  // with the struct view; STATS mirrors the pass/fail summary.
  const auto cert = parse_kv(client.cert());
  EXPECT_EQ(kv_u64(cert, "cert_sources"), 1u);
  EXPECT_EQ(kv_u64(cert, "merged_bits"), kQuiescentBits);
  EXPECT_EQ(kv_u64(cert, "merged_pass"), 0u);
  EXPECT_EQ(kv_u64(cert, "source_0_pass"), 0u);
  EXPECT_EQ(kv_f64(cert, "merged_frequency_p"), expected.frequency_p);
  EXPECT_EQ(kv_f64(cert, "merged_runs_p"), expected.runs_p);
  EXPECT_EQ(kv_f64(cert, "merged_cusum_fwd_p"), expected.cusum_fwd_p);
  EXPECT_EQ(kv_f64(cert, "merged_mcv_h"), expected.mcv_h);
  EXPECT_EQ(kv_f64(cert, "merged_window_mcv_h_last"),
            expected.window_mcv_h_last);
  EXPECT_EQ(kv_f64(cert, "merged_window_markov_h_min"),
            expected.window_markov_h_min);
  EXPECT_EQ(kv_f64(cert, "merged_h_live"), expected.live_min_entropy());

  const auto stats = parse_kv(client.stats());
  EXPECT_EQ(kv_u64(stats, "cert_pass"), 0u);
  EXPECT_EQ(kv_u64(stats, "pool_source_0_pass"), 0u);
  EXPECT_EQ(kv_u64(stats, "pool_source_0_bits"), kQuiescentBits);
  EXPECT_EQ(kv_u64(stats, "pool_quarantines"), 0u);
  EXPECT_LT(kv_f64(stats, "cert_h_live"), 0.5);
}

}  // namespace
}  // namespace dhtrng::service
