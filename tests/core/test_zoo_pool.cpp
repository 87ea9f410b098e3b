// EntropyPool integration for the zoo architectures (labels: concurrency —
// this battery runs in the TSan lane): every zoo source must behave as a
// pool producer exactly like the DH-TRNG does — healthy production with
// certification tracking, and the quarantine -> reseed cure path when a
// producer's physics dies mid-life.  Faults are injected with
// testsupport::DegradingSource so the exact same bit-scheduled failures
// used for the synthetic ideal source hit every real architecture.
#include "core/entropy_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>

#include "core/zoo/zoo.h"
#include "support/fault_sources.h"

namespace dhtrng::core {
namespace {

using testsupport::DegradingSource;
using testsupport::eventually;

/// Grace window for the zoo models, whose producers run slower than the
/// ideal test sources.
constexpr int kGraceMs = 30000;

EntropyPool::SourceFactory zoo_factory(const std::string& arch) {
  return [arch](std::size_t, std::uint64_t seed) {
    ZooOptions opt;
    opt.seed = seed;
    return make_zoo_source(arch, opt);
  };
}

class ZooPoolTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooPoolTest, HealthyProductionWithCertification) {
  EntropyPool pool({.producers = 2, .buffer_bytes = 1024, .block_bits = 512},
                   zoo_factory(GetParam()));
  const auto bytes = pool.get_bytes(2048);
  EXPECT_EQ(bytes.size(), 2048u);
  EXPECT_EQ(pool.snapshot().healthy, 2u);
  EXPECT_EQ(pool.snapshot().retired, 0u);

  // A healthy physical source sails through the online health gate.
  EXPECT_EQ(pool.quarantine_events(), 0u);

  // The certification trackers ingest whole health-gated blocks.
  const PoolCertSnapshot snap = pool.cert_snapshot();
  ASSERT_EQ(snap.producers.size(), 2u);
  std::uint64_t total = 0;
  for (const auto& s : snap.producers) {
    EXPECT_EQ(s.bits % 512u, 0u);
    total += s.bits;
  }
  EXPECT_EQ(snap.merged.bits, total);
  EXPECT_GT(total, 0u);

  // Output sanity: pooled bytes from a physical source are byte-balanced.
  std::size_t ones = 0;
  for (std::uint8_t b : bytes) {
    ones += static_cast<std::size_t>(__builtin_popcount(b));
  }
  EXPECT_NEAR(static_cast<double>(ones) / (2048.0 * 8.0), 0.5, 0.03);
}

TEST_P(ZooPoolTest, DyingSourceIsQuarantinedAndCured) {
  // Producer 0's first build is the real architecture with its noise dying
  // (stuck-at-0) after 3000 bits; the rebuild is the same architecture,
  // healthy.  The pool must alarm on the stuck block, reseed once, and
  // return to full strength — no retirement, no contamination.
  const std::string arch = GetParam();
  std::atomic<int> builds_of_producer0{0};
  EntropyPool pool(
      {.producers = 2, .buffer_bytes = 2048, .block_bits = 512},
      [&](std::size_t index,
          std::uint64_t seed) -> std::unique_ptr<TrngSource> {
        ZooOptions opt;
        opt.seed = seed;
        auto src = make_zoo_source(arch, opt);
        if (index == 0 && builds_of_producer0.fetch_add(1) == 0) {
          return std::make_unique<DegradingSource>(std::move(src), 3000);
        }
        return src;
      });
  ASSERT_TRUE(
      eventually([&] { return pool.quarantine_events() >= 1; }, kGraceMs))
      << arch;
  ASSERT_TRUE(
      eventually([&] { return builds_of_producer0.load() >= 2; }, kGraceMs))
      << arch;
  EXPECT_GE(pool.snapshot().reseeds, 1u);
  EXPECT_EQ(pool.snapshot().retired, 0u);
  EXPECT_EQ(pool.snapshot().healthy, 2u);
  EXPECT_EQ(pool.get_bytes(512).size(), 512u);  // still serving
}

TEST_P(ZooPoolTest, BiasCollapseIsCaughtByTheAdaptiveProportionTest) {
  // After 2000 bits producer 0 keeps toggling but collapses to
  // Bernoulli(0.95) — the failure mode the RCT alone cannot see.  Every
  // rebuild is biased from bit 0 (a rebuild with a healthy prefix would
  // block on the full buffer before reaching its fault point), so
  // quarantines march through max_reseeds to retirement while the healthy
  // producer keeps the pool serving.
  const std::string arch = GetParam();
  std::atomic<int> builds_of_producer0{0};
  EntropyPool pool(
      {.producers = 2, .buffer_bytes = 2048, .block_bits = 512,
       .max_reseeds = 1},
      [&](std::size_t index,
          std::uint64_t seed) -> std::unique_ptr<TrngSource> {
        ZooOptions opt;
        opt.seed = seed;
        auto src = make_zoo_source(arch, opt);
        if (index == 0) {
          const std::uint64_t fail_at =
              builds_of_producer0.fetch_add(1) == 0 ? 2000 : 0;
          return std::make_unique<DegradingSource>(std::move(src), fail_at,
                                                   0.95, false, seed ^ 0xb1a5);
        }
        return src;
      });
  ASSERT_TRUE(
      eventually([&] { return pool.snapshot().retired == 1; }, kGraceMs))
      << arch;
  EXPECT_GE(pool.quarantine_events(), 2u);  // max_reseeds + 1
  EXPECT_EQ(pool.snapshot().healthy, 1u);
  EXPECT_FALSE(pool.snapshot().exhausted);
  EXPECT_EQ(pool.get_bytes(256).size(), 256u);
}

// Concurrency (TSan lane): a consumer drains while certification snapshots
// race live zoo producers — same invariant as the ideal-source soak, now
// with the physical models on the producer threads.
TEST_P(ZooPoolTest, CertSnapshotRacesProductionCleanly) {
  EntropyPool pool({.producers = 2, .buffer_bytes = 2048, .block_bits = 256},
                   zoo_factory(GetParam()));
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)pool.get_bytes(64);
    }
  });
  for (int i = 0; i < 50; ++i) {
    const PoolCertSnapshot snap = pool.cert_snapshot();
    ASSERT_EQ(snap.producers.size(), 2u);
    std::uint64_t total = 0;
    for (const auto& s : snap.producers) {
      EXPECT_EQ(s.bits % 256u, 0u);  // never a torn mid-block state
      total += s.bits;
    }
    EXPECT_EQ(snap.merged.bits, total);
  }
  done.store(true, std::memory_order_release);
  consumer.join();
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, ZooPoolTest,
                         ::testing::ValuesIn(zoo_source_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

}  // namespace
}  // namespace dhtrng::core
